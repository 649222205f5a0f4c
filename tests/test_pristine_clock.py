"""A pristine clock runs as one pass and leaves the trace of the event path.

Until a run applies a fault it holds no fault state, and it is pristine
again from the first clock at which no sink's bank holds a corrupted
port and no bound cell holds an injected permanent fault or is suspect:
a state, not a history, so a healed run returns to the pass once its
restored spare serves, on the pass's table, whose restore patched the
function's row.
``RuleEngine`` states the whole rule on the event path's state, fail-safe
and every sink being its bound cell included.  A pristine clock whose
wave ends before the heap's next event runs whole in the pass of
``Engine._handle_clock``, which runs such clocks back to back; the
clocks that take the event path are the ones it does not run
(``helpers.PassLog``).  A transient on a spare that holds no data
lands nowhere, so adding one at a drawn time sends at most the clocks
whose waves it falls in to the event path and changes nothing else: the
run must leave the plain run's records, plant speeds and cell state,
apart from its ``fault.`` row.  Every engine here records every publish
(``helpers.FullRecord``), so a pass that republishes an unchanged value
at another time than the event path shows; ``test_change_only_samples``
checks the rule that thins the kernel's records.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from cellfab.apps import resolve_application
from cellfab.cell import HEALTHY, CellHealth, CellId, Opcode, Port, WidthMode
from cellfab.engine import _STOP, Engine, FaultSpec, Scenario
from cellfab.netlist import parse_netlist
from cellfab.place import SLOTS_PER_LAYER, compile_netlist
from cellfab.scenarios import BUNDLED_SCENARIOS, load_scenario

from helpers import (
    EventPathEngine, FullRecord, FullRecordEngine, PassLog, clock_times, plant_speeds,
)
from test_selective_eval import cell_state, faulted_scenarios
from test_wave_paths import edg_scenario, scenarios


class PristineEngine(FullRecord, PassLog, Engine):
    """An engine that lists the clocks that take the pristine pass
    (``PassLog``); it records every publish, as ``RuleEngine`` does."""


def last_offset(program, sc: Scenario) -> int:
    return max((level for level, *_ in program.wave), default=0) * sc.timing.cell_delay


class RuleEngine(FullRecord, EventPathEngine):
    """The event-path reference, recording every publish and listing the
    clocks at which the pristine rule holds on its own state: the fabric
    is not in fail-safe, no function's bank holds an overlay port, every
    bound cell holds its function's bank, ``HEALTHY`` or ``SPARE_ACTIVE``
    with no injected permanent fault, and no event but the stop comes at
    or before the wave's last slot, which is at or before the stop.
    Every event on the heap then took its sequence number before the
    clock's wave did, so an event at that slot sorts first; the stop
    sorts after every evaluation."""

    def __init__(self, program, scenario):
        super().__init__(program, scenario)
        self.pristine = []
        self.last = last_offset(program, scenario)

    def _handle_clock(self, t, assignments):
        fabric, end = self.fabric, t + self.last
        bound = [(c, b) for c, b in zip(fabric.binding, fabric.banks) if c is not None]
        if (
            not fabric.fail_safe
            and not any(b.overlay for _, b in bound)
            and all(c.registers is b for c, b in bound)
            and all(c.health in (HEALTHY, CellHealth.SPARE_ACTIVE)
                    and c.injected_permanent is None
                    for c, _ in bound)
            and end <= self.scenario.run_until
            and all(time > end for time, _, kind, _ in self._heap if kind != _STOP)
        ):
            self.pristine.append(t)
        super()._handle_clock(t, assignments)


def expected_pristine(program, sc: Scenario) -> list[int]:
    """The clocks at which the rule holds on the event path's state."""
    return RuleEngine(program, sc).run().pristine


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


def without_fault_rows(engine):
    return [r for r in engine.trace.records if not r.signal.startswith("fault.")]


def assert_same_as_event_path(program, sc: Scenario):
    """Run ``sc`` with and without the pristine pass; the two must leave
    the same records of every publish, plant speeds and cell state, take
    the same number of sequence numbers and end on the same last clock,
    and the pass must take exactly the clocks the rule lists on the event
    path's state."""
    engine = PristineEngine(program, sc).run()
    reference = RuleEngine(program, sc).run()
    assert engine.trace.records == reference.trace.records
    assert plant_speeds(engine.trace, sc.plant) == plant_speeds(reference.trace, sc.plant)
    assert cell_state(engine.fabric) == cell_state(reference.fabric)
    assert (engine._seq, engine._last_clock) == (reference._seq, reference._last_clock)
    assert engine.pristine == reference.pristine
    return engine


def assert_prefix_end_changes_nothing(program, sc: Scenario, t: int, index: int = 0):
    """Run ``sc`` as is and with a no-op transient at about ``t``, each
    also on the event path alone; returns the two pristine engines."""
    plain = assert_same_as_event_path(program, sc)
    forced_sc = replace(sc, faults=sc.faults + [noop_transient(program, plain, t, index)])
    forced = assert_same_as_event_path(program, forced_sc)
    assert without_fault_rows(forced) == without_fault_rows(plain)
    assert plant_speeds(forced.trace, sc.plant) == plant_speeds(plain.trace, sc.plant)
    assert cell_state(forced.fabric) == cell_state(plain.fabric)
    return plain, forced


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

    def note(program, sc, plain_engine, forced_engine):
        plain, forced = plain_engine.pristine, forced_engine.pristine
        applied = [r.time for r in plain_engine.trace.records
                   if r.signal.startswith("fault.") and r.value == 1]
        if plain and applied and plain[-1] > min(applied):
            seen.add("pristine again after an applied transient")
        restores = [r.time for r in plain_engine.trace.records
                    if r.annotation == "syndrome_action" and r.signal.endswith(".restore")]
        if plain and restores and plain[-1] > min(restores):
            seen.add("pristine again after a restore")
        if plain_engine.fabric.fail_safe:
            seen.add("fail-safe")
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
        "pristine again after an applied transient",
        "pristine again after a restore",
        "fail-safe",
    }


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_a_bundled_run_is_pristine_until_its_first_fault(name):
    # ccs_step drives the plant; the no-op lands a third of the way in
    sc = load_scenario(name)
    program = resolve_application(sc.application)
    plain, _ = assert_prefix_end_changes_nothing(program, sc, sc.run_until // 3)
    if not sc.faults:
        last = last_offset(program, sc)
        assert plain.pristine == [t for t in clock_times(sc) if t + last <= sc.run_until]


@pytest.mark.parametrize("t, pristine", [
    (None, [0, 300, 600, 900, 1200, 1500, 1800]),  # the wave at 2100 passes the stop
    (550, [0, 300, 600, 900, 1200, 1500, 1800]),  # after the 300 wave's last slot, at 545
    (545, [0, 600, 900, 1200, 1500, 1800]),  # at that slot: the inject sorts first
    (900, [0, 300, 600, 1200, 1500, 1800]),  # at a clock's own time: the clock comes first
    (0, [300, 600, 900, 1200, 1500, 1800]),
])
def test_the_prefix_ends_at_the_first_inject(t, pristine):
    # an inject that lands nowhere keeps the run pristine: it sends only
    # the clock whose wave it falls in to the event path
    program = resolve_application("edg")
    sc = edg_scenario()
    if t is not None:
        # L0.R0 is an idle spare: the transient lands nowhere
        sc = edg_scenario([FaultSpec(kind="transient_register", cell=CellId(0, 0, "R"),
                                     time=t, port=Port.NORTH, replica=0, flip=1)])
    engine = PristineEngine(program, sc).run()
    assert engine.pristine == pristine == expected_pristine(program, sc)
    assert [(r.time, r.value) for r in engine.trace.records if r.signal.startswith("fault.")] == (
        [] if t is None else [(t, 0)]
    )
    plain = FullRecordEngine(program, edg_scenario()).run()
    assert without_fault_rows(engine) == plain.trace.records


def test_chained_delays_shift_off_last_period_values():
    # d2 reads d1: every delay register steps before any publishes, so d2
    # takes d1's value of the last period, not the one shifted in now
    nl = parse_netlist(
        "input a : int16\nnode d1 = DELAY(a) delay=1\nnode d2 = DELAY(d1) delay=1\n"
        "node y = ADD(d2, imm) imm=1\noutput o = y\n"
    )
    sc = Scenario(name="chain", application="inline",
                  stimulus=[(t, "a", t // 100) for t in range(0, 1000, 300)], run_until=1000)
    engine = assert_same_as_event_path(compile_netlist(nl), sc)
    assert engine.pristine == [0, 300, 600, 900]
    assert [(r.time, r.value) for r in engine.trace.records if r.signal == "o"] == [
        (35, 1), (335, 1), (635, 1), (935, 4),
    ]


def test_a_healed_run_returns_to_the_pass():
    # L0.F0 is flipped at 400, detected at 435 and restored onto L0.R0 at
    # 505: the restore's cascade runs into the 600 wave, and from 900 the
    # restored spare runs on the pass
    program = resolve_application("edg")
    sc = edg_scenario([FaultSpec(kind="permanent_gfb", cell=CellId(0, 0, "F"), time=400, flip=1)])
    engine = assert_same_as_event_path(program, sc)
    assert [s.detect_time for s in engine.syndromes] == [435]
    assert engine.fabric.binding[engine.syndromes[0].function_index].cell_id == CellId(0, 0, "R")
    assert engine.pristine == [0, 900, 1200, 1500, 1800]


def ccs_transient(cell: CellId, t: int) -> Scenario:
    sc = load_scenario("ccs_step")
    return replace(sc, faults=[FaultSpec(kind="transient_register", cell=cell, time=t,
                                         port=Port.NORTH, replica=0, flip=1)])


def test_a_noop_inject_at_zero_keeps_the_run_pristine():
    # L0.R0 is an idle spare: only the clock at 0, whose wave the inject
    # falls in, takes the event path; the wave at 300000 passes the stop
    program = resolve_application("ccs")
    engine = assert_same_as_event_path(program, ccs_transient(CellId(0, 0, "R"), 0))
    assert engine.pristine == list(range(1000, 300000, 1000))
    plain = FullRecordEngine(program, load_scenario("ccs_step")).run()
    assert without_fault_rows(engine) == plain.trace.records


def test_a_run_is_pristine_again_once_a_transient_is_rewritten():
    # port N of L1.F1 is fed by a function: the transient at 1234 comes
    # after the cell's slot and is masked at once; the port still holds it
    # at 2000, that wave's rewrite drops it, and the run is pristine again
    # from 3000
    program = resolve_application("ccs")
    engine = assert_same_as_event_path(program, ccs_transient(CellId(1, 1, "F"), 1234))
    assert engine.pristine == [0] + list(range(3000, 300000, 1000))


def test_an_applied_edg_transient_is_masked_and_the_run_pristine_again():
    # L1.F1 evaluates at 335, so the transient at 400 is masked at once;
    # the 600 wave rewrites port N and every cell is healthy at 900
    program = resolve_application("edg")
    sc = edg_scenario([FaultSpec(kind="transient_register", cell=CellId(1, 1, "F"), time=400,
                                 port=Port.NORTH, replica=1, flip=1)])
    engine = assert_same_as_event_path(program, sc)
    assert [(r.time, r.signal) for r in engine.trace.records if r.annotation != "data"] == [
        (400, "cell.L1.F1.N"),
    ]
    assert engine.pristine == [0, 900, 1200, 1500, 1800]


def test_a_suspect_cell_keeps_the_run_on_the_event_path():
    # two replicas of d1's port flipped apart leave no majority: the delay
    # register turns suspect when it steps at 300, and the stimulus there
    # rewrites the port.  With no corrupted port left at 600, d1 is still
    # suspect until it steps, so that clock takes the event path
    nl = parse_netlist(
        "input a : int16\nnode d1 = DELAY(a) delay=1\nnode y = ADD(d1, imm) imm=1\noutput o = y\n"
    )
    faults = [FaultSpec(kind="transient_register", cell=CellId(0, 0, "F"), time=100,
                        port=Port.NORTH, replica=replica, flip=flip)
              for replica, flip in ((0, 1), (1, 2))]
    sc = Scenario(name="suspect", application="inline", faults=faults,
                  stimulus=[(t, "a", 5) for t in range(0, 1400, 300)], run_until=1400)
    engine = assert_same_as_event_path(compile_netlist(nl), sc)
    assert [(r.time, r.signal, r.value) for r in engine.trace.records
            if r.annotation == "masked_transient"] == [(300, "cell.L0.F0.N", 0b111)]
    assert engine.pristine == [0, 900, 1200]
