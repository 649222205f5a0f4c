"""Helpers shared by the test modules (not collected: no ``test_`` prefix)."""

from __future__ import annotations

from typing import Optional

from cellfab.apps import resolve_application
from cellfab.cell import FAULTY_DEACTIVATED
from cellfab.engine import Engine, PlantFeedback, Trace
from cellfab.genetic import SelectorKind
from cellfab.netlist import Netlist
from cellfab.oracle import NetlistOracle
from cellfab.place import FabricProgram
from cellfab.report import _held_values


class EventPathEngine(Engine):
    """The kernel with the pristine clock off: every clock takes the event
    path, as a reference for the pass and a base for the references below."""

    _pristine = property(lambda self: False, lambda self, value: None)


def clock_times(sc) -> list[int]:
    """A run's clocks: the stimulus period's grid up to ``run_until`` and
    every stimulus time."""
    period = sc.timing.stimulus_period
    times = set(range(0, sc.run_until + 1, period)) | {t for t, _, _ in sc.stimulus}
    return sorted(times)


class PassLog:
    """Mixed into an engine, lists the clocks that take the event path,
    ``Engine._event_clock``.  Every other clock takes the pristine pass,
    which runs clocks back to back with no per-clock call to hook, so
    ``pristine`` lists the run's clocks (``clock_times``) less those."""

    def __init__(self, program: FabricProgram, scenario):
        super().__init__(program, scenario)
        self.event_clocks: list[int] = []

    def _event_clock(self, t, assignments):
        self.event_clocks.append(t)
        super()._event_clock(t, assignments)

    @property
    def pristine(self) -> list[int]:
        event_clocks = set(self.event_clocks)
        return [t for t in clock_times(self.scenario) if t not in event_clocks]


class AlwaysEvaluateEngine(EventPathEngine):
    """The kernel with selective evaluation off: every wave slot and local
    evaluation sets its live cell's ``changed`` flag, the one quiet test,
    before the test, so it never republishes the ``published`` value
    unevaluated and every evaluation is a ``FunctionalCell.step``; it is
    never pristine, so every clock takes the event path."""

    def _evaluate(self, fn_idx, t, cascade):
        cell = self.fabric.binding[fn_idx]
        if cell.health is not FAULTY_DEACTIVATED:
            cell.registers.changed = True
        super()._evaluate(fn_idx, t, cascade)


class AlwaysRouteEngine(EventPathEngine):
    """The kernel routing every publish at every event, not only those
    that change the function's value or land while a sink holds a
    corrupted port: its flag reads True whatever the kernel sets, and it
    is never pristine, as a pristine clock routes changes only."""

    _route_repeats = property(lambda self: True, lambda self, value: None)


class FullRecord:
    """Mixed into an engine, records every publish of every function, not
    only the changes of a function that drives no primary output, so a
    comparison of two such engines' records covers every publish."""

    def __init__(self, program: FabricProgram, scenario):
        super().__init__(program, scenario)
        self._recorded_always = frozenset(program.signals)


class FullRecordEngine(FullRecord, Engine):
    """The kernel recording every publish: the trace the recording rule
    thins, as a reference for it."""


def run_full(scenario) -> Engine:
    """``sim.run_raw`` on a ``FullRecordEngine``."""
    return FullRecordEngine(resolve_application(scenario.application), scenario).run()


def held_at(trace: Trace, signal: str, times: list[int]) -> list[Optional[int]]:
    """The value ``signal`` holds at each of ``times``, in ascending order:
    that of its last data sample at or before the time, None before its
    first."""
    samples = [(r.time, r.value) for r in trace.records
               if r.annotation == "data" and r.signal == signal]
    return _held_values(times, samples)


def plant_speeds(trace: Trace, plant: Optional[PlantFeedback]) -> list[tuple[int, int]]:
    """The plant's (time, speed) at each clock after 0: that clock's last
    ``in.<plant input>`` sample, which the plant writes after the
    stimulus; empty for a run with no plant."""
    if plant is None:
        return []
    signal = f"in.{plant.input_name}"
    speeds = {r.time: r.value for r in trace.records if r.signal == signal and r.time > 0}
    return list(speeds.items())


def selector_walk(trace: Trace, program: FabricProgram, fn_idx: int, t: int) -> list[int]:
    """The values a function's ports draw at ``t``, walked from its selectors.

    A primary input reads its last ``in.<name>`` sample at or before
    ``t``, a function output the last sample of its first signal, a
    constant-wired port the immediate, and an unused port 0; an input or
    function not yet sampled reads 0.  This is the reference for what a
    spare's ports hold after reroute.
    """
    last: dict[str, int] = {}
    for r in trace.records:
        if r.annotation == "data" and r.time <= t:
            last[r.signal] = r.value
    config = program.configs[fn_idx]
    values = []
    for sel in config.selectors:
        if sel.kind is SelectorKind.PRIMARY_INPUT:
            values.append(last.get(f"in.{program.netlist.inputs[sel.index][0]}", 0))
        elif sel.kind is SelectorKind.CELL_OUTPUT:
            values.append(last.get(program.signals[sel.index][0], 0))
        elif sel.kind is SelectorKind.CONSTANT:
            values.append(config.immediate)
        else:
            values.append(0)
    return values


def compare_steady_state(
    trace: Trace,
    oracle_outputs: dict[str, int],
    t_from: int,
) -> list[tuple[str, Optional[int], int]]:
    """Mismatches between settled trace outputs and the ideal reference.

    For each primary output the value compared is its last sample at or
    after ``t_from`` (or the value still held from before, if the signal
    did not change afterwards).  Returns (signal, simulated, expected)
    triples; empty means the steady state matches.
    """
    last = max((r.time for r in trace.records), default=0)
    if last < t_from:
        raise ValueError(f"trace ends at {last}, before t_from={t_from}")
    mismatches = []
    for name in sorted(oracle_outputs):
        held: Optional[int] = None
        after: Optional[int] = None
        for r in trace.records:
            if r.annotation != "data" or r.signal != name:
                continue
            if r.time < t_from:
                held = r.value
            else:
                after = r.value
        value = after if after is not None else held
        if value != oracle_outputs[name]:
            mismatches.append((name, value, oracle_outputs[name]))
    return mismatches


def reference_eval(
    nl: Netlist,
    inputs: dict[str, int],
    delay_state: dict[str, tuple[int, ...]] | None = None,
) -> tuple[dict[str, int], dict[str, tuple[int, ...]]]:
    """One-shot ideal evaluation: (primary outputs, advanced delay state)."""
    oracle = NetlistOracle(nl)
    if delay_state is not None:
        for name, pipe in delay_state.items():
            oracle.state[name] = tuple(pipe)
    values = oracle.step(inputs)
    return oracle.outputs(values), dict(oracle.state)


def settled_reference(nl: Netlist, inputs: dict[str, int], holds: int) -> dict[str, int]:
    """Outputs after holding one input vector for ``holds`` periods.

    With inputs held constant every delay pipeline flushes to a
    history-independent fixpoint, which is the steady state the fabric
    must reach as well.
    """
    oracle = NetlistOracle(nl)
    values: dict[str, int] = {}
    for _ in range(max(1, holds)):
        values = oracle.step(inputs)
    return oracle.outputs(values)
