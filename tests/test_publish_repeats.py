"""A publish that repeats its function's value is not routed.

Every reader's sink port already holds the function's published value,
so writing it again changes nothing, except that a write drops a
transient's corrupted port.  ``Engine._publish`` therefore routes an
unchanged value only from a transient's injection until the first clock
at which no sink's register bank holds an overlay port.  The reference,
``helpers.AlwaysRouteEngine``, routes every publish; the two must leave
equal traces and equal cell state.
"""

import pytest
from hypothesis import given, settings

from cellfab.apps import resolve_application
from cellfab.cell import CellId, Port
from cellfab.engine import Engine, FaultSpec, Scenario
from cellfab.fabric import Fabric
from cellfab.netlist import parse_netlist
from cellfab.place import compile_netlist
from cellfab.scenarios import load_scenario

from helpers import (
    AlwaysRouteEngine, FullRecord, FullRecordEngine, cell_named, clock_times, plant_speeds,
)
from test_selective_eval import cell_state, faulted_scenarios
from test_wave_paths import scenarios


class FullAlwaysRouteEngine(FullRecord, AlwaysRouteEngine):
    """The always-routing reference, recording every publish."""


def assert_same_as_always_routing(program, sc: Scenario):
    # both record every publish, so an unchanged republish must match too
    engine = FullRecordEngine(program, sc)
    res = engine.run()
    reference = FullAlwaysRouteEngine(program, sc).run()
    assert res.trace.records == reference.trace.records
    assert plant_speeds(res.trace, sc.plant) == plant_speeds(reference.trace, sc.plant)
    assert cell_state(res.fabric) == cell_state(reference.fabric)
    return engine, res


@settings(derandomize=True, deadline=None, max_examples=60)
@given(scenarios())
def test_skipping_repeats_matches_always_routing(case):
    assert_same_as_always_routing(*case)


def test_skipping_repeats_matches_always_routing_under_faults():
    # the cases must mismatch, heal, mask a transient and run out of spares
    seen = set()

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(faulted_scenarios())
    def check(case):
        _engine, res = assert_same_as_always_routing(*case)
        seen.update(r.annotation for r in res.trace.records)
        if any(r.signal.endswith(".restore") for r in res.trace.records):
            seen.add("healed")

    check()
    assert {"mismatch", "masked_transient", "syndrome_action", "alarm", "healed"} <= seen


def assert_readers_hold_published(fabric: Fabric) -> None:
    for fn_idx, value in enumerate(fabric.published):
        if value is None:
            continue
        for reader, port in fabric.program.readers[fn_idx]:
            assert fabric.banks[reader].values[port] == value, (fn_idx, reader, port)


class CheckingEngine(Engine):
    """An engine that checks, at every clock, that each reader's sink port
    holds the value its function last published.  The pristine pass runs
    clocks back to back in ``Engine._handle_clock`` with no call per
    clock, so the check runs where the kernel reads ``_pristine``: at each
    clock's pass test, before the clock writes a port, whichever path it
    takes.  ``checked`` lists the clocks checked so."""

    def __init__(self, program, scenario):
        super().__init__(program, scenario)
        self.checked = set()

    @property
    def _pristine(self):
        assert_readers_hold_published(self.fabric)
        self.checked.add(self._last_clock)
        return self.__dict__["_pristine"]

    @_pristine.setter
    def _pristine(self, value):
        self.__dict__["_pristine"] = value


@settings(derandomize=True, deadline=None, max_examples=100)
@given(faulted_scenarios())
def test_every_reader_holds_the_published_value(case):
    res = CheckingEngine(*case).run()
    assert_readers_hold_published(res.fabric)
    assert res.checked >= set(clock_times(case[1]))


@pytest.mark.parametrize("replicas, samples", [
    ((0,), [(70, 8), (100, 8), (370, 8), (670, 8), (970, 8)]),
    # two replicas flipped alike out-vote the third: the cell reads 6 ^ 255
    ((1, 2), [(70, 8), (100, 251), (370, 8), (670, 8), (970, 8)]),
])
def test_an_unchanged_republish_drops_a_transient(replicas, samples):
    # y (L0.F1) reads x on its N port.  The transient at 100 is voted at
    # once; the wave at 300 republishes x = 6 unchanged, and that write
    # drops the corrupted port, so y is not voted again in later waves.
    # x drives no output, so only its first sample is recorded
    nl = parse_netlist(
        "input a : int16\nnode x = ADD(a, imm) imm=1\nnode y = ADD(x, imm) imm=2\noutput o = y\n"
    )
    program = compile_netlist(nl)
    faults = [
        FaultSpec(kind="transient_register", cell=CellId(0, 1, "F"), time=100,
                  port=Port.NORTH, replica=replica, flip=255)
        for replica in replicas
    ]
    sc = Scenario(name="pinned", application="inline", stimulus=[(0, "a", 5)],
                  faults=faults, run_until=1200)
    res = Engine(program, sc).run()
    records = res.trace.records
    assert [(r.time, r.value) for r in records if r.signal == "fn.x"] == [(35, 6)]
    assert [(r.time, r.signal) for r in records if r.annotation == "masked_transient"] == [
        (100, "cell.L0.F1.N"),
    ]
    assert [(r.time, r.value) for r in records if r.signal == "o"] == samples
    assert cell_named(res.fabric, "L0.F1").registers.overlay == {}


def count_routes(monkeypatch, sc: Scenario):
    """The run's result and its number of routed publishes: the walks of
    the run's sink lists, by the pristine pass's own writes and by the
    event path's ``engine._route``.  Each list is wrapped once the run has
    bound it, and the rows are bound again to share the wrapped lists."""
    walks = []

    class CountingSinks(list):
        def __iter__(self):
            walks.append(self)
            return super().__iter__()

    bind_table = Engine._bind_table

    def counting_bind_table(engine):
        bind_table(engine)
        engine._sinks = {source: CountingSinks(sinks) for source, sinks in engine._sinks.items()}
        for i in (*engine.program.delays, *engine._wave_entry):
            engine._bind_row(i)

    monkeypatch.setattr(Engine, "_bind_table", counting_bind_table)
    res = Engine(resolve_application(sc.application), sc).run()
    return res, len(walks)


def publish_counts(res) -> tuple[int, int, int]:
    """(input assignments, publishes, publishes that changed the value),
    read from the trace: a function publishes one record per signal when
    it drives an output or changes its value, and at every publish on a
    ``FullRecordEngine``."""
    program = res.trace.program
    firsts = {names[0] for names in program.signals.values()}
    inputs = publishes = changed = 0
    last = {}
    for r in res.trace.records:
        if r.annotation != "data":
            continue
        if r.signal.startswith("in."):
            inputs += 1
        elif r.signal in firsts:
            publishes += 1
            changed += last.get(r.signal) != r.value
            last[r.signal] = r.value
    return inputs, publishes, changed


def test_a_fault_free_run_routes_only_changes(monkeypatch):
    res, routes = count_routes(monkeypatch, load_scenario("ccs_step"))
    inputs, publishes, changed = publish_counts(res)
    assert routes == inputs + changed
    assert changed < publishes  # the guard has repeats to skip


def test_a_transient_routes_repeats_until_no_sink_holds_it(monkeypatch):
    sc = load_scenario("ccs_step")
    sc.faults = [FaultSpec(kind="transient_register", cell=CellId(1, 0, "F"), time=5000,
                           port=Port.NORTH, replica=0, flip=1)]
    assert_same_as_always_routing(resolve_application(sc.application), sc)
    res, routes = count_routes(monkeypatch, sc)
    inputs, _publishes, changed = publish_counts(res)
    # every publish, repeats of internal functions too, is recorded only
    # on the reference
    full = FullRecordEngine(resolve_application(sc.application), sc).run()
    full_inputs, publishes, full_changed = publish_counts(full)
    assert (full_inputs, full_changed) == (inputs, changed)
    # L1.F0's N port reads the input set_btn, whose next write, at 170,000,
    # drops the corrupted port; the clock at 171,000 is the first to find no
    # overlay, so only the 2,161 repeats published after the injection and
    # before that clock are routed: 310 inputs + 711 changes + 2,161
    assert routes == 3182
    assert routes < inputs + publishes
    assert changed < publishes
