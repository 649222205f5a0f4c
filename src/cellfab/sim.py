"""Top-level facade: resolve an application, run a scenario, compute metrics."""

from __future__ import annotations

from .apps import resolve_application
from .engine import Engine, Scenario, Trace
from .report import HealingMetrics, metrics


def run_raw(scenario: Scenario) -> Engine:
    """Run a scenario; its engine's trace, fabric and syndromes are the result."""
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
