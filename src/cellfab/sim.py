"""Top-level facade: resolve an application, run a scenario, compute metrics."""

from __future__ import annotations

from .apps import resolve_application
from .engine import Engine, RunResult, Scenario, Trace
from .report import HealingMetrics, metrics


def run_raw(scenario: Scenario) -> RunResult:
    """Run a scenario and return the full result (trace, fabric, syndromes)."""
    program = resolve_application(scenario.application)
    return Engine(program, scenario).run()


def run(scenario: Scenario) -> tuple[Trace, HealingMetrics]:
    """Run a scenario; returns (trace, healing metrics) per the library contract.

    The application compiles once: ``metrics`` takes the trace's own
    program for the golden twin of a faulted scenario, and a fault-free
    run is its own twin, so it is simulated once.
    """
    trace = run_raw(scenario).trace
    return trace, metrics(trace, scenario)
