"""A pristine clock runs as one pass and leaves the trace of the event path.

Until a run handles its first inject event it holds no fault state, and
a clock whose wave ends before the heap's next event runs whole in
``Engine._pristine_clock``.  A transient on a spare that holds no data
lands nowhere, so adding one at a drawn time ends the pristine prefix
there and changes nothing else: the clocks after it take the event path,
and the run must leave the plain run's records, plant log and cell
state, apart from its ``fault.`` row.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from cellfab.apps import resolve_application
from cellfab.cell import CellId, Opcode, Port, WidthMode
from cellfab.engine import Engine, FaultSpec, Scenario
from cellfab.netlist import parse_netlist
from cellfab.place import SLOTS_PER_LAYER, compile_netlist
from cellfab.scenarios import BUNDLED_SCENARIOS, load_scenario

from helpers import EventPathEngine
from test_selective_eval import cell_state, faulted_scenarios
from test_wave_paths import clock_times, edg_scenario, scenarios


class PristineEngine(Engine):
    """An engine that lists the clocks that take the pristine pass."""

    def __init__(self, program, scenario):
        super().__init__(program, scenario)
        self.pristine = []

    def _pristine_clock(self, t, assignments):
        self.pristine.append(t)
        super()._pristine_clock(t, assignments)


def last_offset(program, sc: Scenario) -> int:
    return max((level for level, *_ in program.wave), default=0) * sc.timing.cell_delay


def expected_pristine(program, sc: Scenario) -> list[int]:
    """The clocks whose wave ends before the first fault's time, the next
    clock and the stop, and starts after the previous clock's wave ended.

    An inject or clock at a wave's last slot sorts before it, since its
    sequence number was taken at the start of the run; the stop sorts
    after every evaluation of its own time."""
    last = last_offset(program, sc)
    end = min([f.time for f in sc.faults] + [sc.run_until + 1])
    clocks = clock_times(sc)
    return [
        c for i, c in enumerate(clocks)
        if c + last < end
        and (i == 0 or clocks[i - 1] + last < c)
        and (i + 1 == len(clocks) or c + last < clocks[i + 1])
    ]


def noop_transient(program, plain, t: int, index: int = 0) -> FaultSpec:
    """A transient at about ``t`` on a spare that holds no data then in the
    run ``plain``: one no heal claims, else the last one claimed, with
    ``t`` moved to its claim (a spare takes data at its reroute, later)."""
    spares = [
        CellId(layer, slot, "R")
        for layer in range(program.placement.layer_count) for slot in range(SLOTS_PER_LAYER)
    ]
    claimed = {s.chosen_spare: s.detect_time for s in plain.syndromes if s.chosen_spare}
    idle = [cell for cell in spares if cell not in claimed]
    if idle:
        cell = idle[index % len(idle)]
    else:
        cell = max(claimed, key=claimed.get)
        t = min(t, claimed[cell])
    return FaultSpec(kind="transient_register", cell=cell, time=t,
                     port=Port.NORTH, replica=0, flip=1)


def without_fault_rows(res):
    return [r for r in res.trace.records if not r.signal.startswith("fault.")]


def assert_same_as_event_path(program, sc: Scenario):
    """Run ``sc`` with and without the pristine pass; the two must leave
    the same records, plant log and cell state, and take the same number
    of sequence numbers."""
    engine = PristineEngine(program, sc)
    res = engine.run()
    reference_engine = EventPathEngine(program, sc)
    reference = reference_engine.run()
    assert res.trace.records == reference.trace.records
    assert res.plant_log == reference.plant_log
    assert cell_state(res.fabric) == cell_state(reference.fabric)
    assert engine._seq == reference_engine._seq
    return engine, res


def assert_prefix_end_changes_nothing(program, sc: Scenario, t: int, index: int = 0):
    """Run ``sc`` as is, also on the event path alone, and with a no-op
    transient at about ``t``; returns the pristine clocks of the first
    and the last run."""
    plain_engine, plain = assert_same_as_event_path(program, sc)
    forced_sc = replace(sc, faults=sc.faults + [noop_transient(program, plain, t, index)])
    forced_engine = PristineEngine(program, forced_sc)
    forced = forced_engine.run()
    assert without_fault_rows(forced) == without_fault_rows(plain)
    assert forced.plant_log == plain.plant_log
    assert cell_state(forced.fabric) == cell_state(plain.fabric)
    assert plain_engine.pristine == expected_pristine(program, sc)
    assert forced_engine.pristine == expected_pristine(program, forced_sc)
    return plain_engine.pristine, forced_engine.pristine


def has_delay_loop(nl) -> bool:
    """Whether some DELAY reads, through its operands, its own output."""
    operands = {node.name: node.operands for node in nl.nodes}
    for node in nl.nodes:
        if node.opcode is Opcode.DELAY:
            seen, stack = set(), list(node.operands)
            while stack:
                ref = stack.pop()
                if ref == node.name:
                    return True
                if ref in operands and ref not in seen:
                    seen.add(ref)
                    stack.extend(operands[ref])
    return False


def drawn_case(case, data):
    """``case`` with, at times, a stop on the last slot of the clock at the
    old stop; a drawn time for the no-op transient and a spare index."""
    program, sc = case
    if data.draw(st.booleans()):
        sc = replace(sc, run_until=sc.run_until + last_offset(program, sc))
    t = data.draw(st.integers(0, sc.run_until))
    return program, sc, t, data.draw(st.integers(0, 63))


def test_the_properties_cover_what_they_must():
    seen = set()

    def note(program, sc, plain, forced):
        if len(forced) < len(plain):
            seen.add("event path where the plain run is pristine")
        if sc.run_until - last_offset(program, sc) in plain:
            seen.add("pristine clock whose last slot is the stop")
        if sc.timing.stimulus_period <= last_offset(program, sc):
            seen.add("overlapping waves")
        if any(t % sc.timing.stimulus_period for t, _, _ in sc.stimulus):
            seen.add("stimulus off the period grid")
        if not plain and any(f.time > sc.timing.stimulus_period for f in sc.faults):
            seen.add("no pristine clock")
        if plain and WidthMode.INT16 in program.netlist.widths.values():
            seen.add("pristine int16 clock")
        if plain and has_delay_loop(program.netlist):
            seen.add("pristine clock with a DELAY loop")

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(scenarios(), st.data())
    def fault_free_and_transients(case, data):
        program, sc, t, index = drawn_case(case, data)
        note(program, sc, *assert_prefix_end_changes_nothing(program, sc, t, index))

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(faulted_scenarios(), st.data())
    def heals_and_fail_safe(case, data):
        program, sc, t, index = drawn_case(case, data)
        note(program, sc, *assert_prefix_end_changes_nothing(program, sc, t, index))

    fault_free_and_transients()
    heals_and_fail_safe()
    assert seen == {
        "event path where the plain run is pristine",
        "pristine clock whose last slot is the stop",
        "overlapping waves",
        "stimulus off the period grid",
        "no pristine clock",
        "pristine int16 clock",
        "pristine clock with a DELAY loop",
    }


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_a_bundled_run_is_pristine_until_its_first_fault(name):
    # ccs_step drives the plant; the no-op lands a third of the way in
    sc = load_scenario(name)
    program = resolve_application(sc.application)
    plain, _ = assert_prefix_end_changes_nothing(program, sc, sc.run_until // 3)
    if not sc.faults:
        assert plain == [t for t in clock_times(sc) if t + last_offset(program, sc) <= sc.run_until]


@pytest.mark.parametrize("t, pristine", [
    (None, [0, 300, 600, 900, 1200, 1500, 1800]),  # the wave at 2100 passes the stop
    (550, [0, 300]),  # after the 300 wave's last slot, at 545
    (545, [0]),  # at that slot: the inject sorts first
    (900, [0, 300, 600]),  # at a clock's own time: the clock is handled first
    (0, []),
])
def test_the_prefix_ends_at_the_first_inject(t, pristine):
    program = resolve_application("edg")
    sc = edg_scenario()
    if t is not None:
        # L0.R0 is an idle spare: the transient lands nowhere
        sc = edg_scenario([FaultSpec(kind="transient_register", cell=CellId(0, 0, "R"),
                                     time=t, port=Port.NORTH, replica=0, flip=1)])
    engine = PristineEngine(program, sc)
    res = engine.run()
    assert engine.pristine == pristine == expected_pristine(program, sc)
    assert [(r.time, r.value) for r in res.trace.records if r.signal.startswith("fault.")] == (
        [] if t is None else [(t, 0)]
    )
    plain = Engine(program, edg_scenario()).run()
    assert without_fault_rows(res) == plain.trace.records


def test_chained_delays_shift_off_last_period_values():
    # d2 reads d1: every delay register steps before any publishes, so d2
    # takes d1's value of the last period, not the one shifted in now
    nl = parse_netlist(
        "input a : int16\nnode d1 = DELAY(a) delay=1\nnode d2 = DELAY(d1) delay=1\n"
        "node y = ADD(d2, imm) imm=1\noutput o = y\n"
    )
    sc = Scenario(name="chain", application="inline",
                  stimulus=[(t, "a", t // 100) for t in range(0, 1000, 300)], run_until=1000)
    engine, res = assert_same_as_event_path(compile_netlist(nl), sc)
    assert engine.pristine == [0, 300, 600, 900]
    assert [(r.time, r.value) for r in res.trace.records if r.signal == "o"] == [
        (35, 1), (335, 1), (635, 1), (935, 4),
    ]


def test_an_applied_fault_ends_the_prefix_for_good():
    # L0.F0 is flipped at 400, detected at 435 and healed by 505: the
    # periods after it run flat again, but on the event path
    program = resolve_application("edg")
    sc = edg_scenario([FaultSpec(kind="permanent_gfb", cell=CellId(0, 0, "F"), time=400, flip=1)])
    engine = PristineEngine(program, sc)
    res = engine.run()
    assert [s.detect_time for s in res.syndromes] == [435]
    assert engine.pristine == [0]
