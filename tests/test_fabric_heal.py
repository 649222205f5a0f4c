"""Healing layers: local spares, global migration, fail-safe posture."""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from cellfab.apps import resolve_application
from cellfab.apps.edg import START_PERMITTED
from cellfab.cell import CellHealth, CellId, Opcode, Port
from cellfab.engine import Engine, FaultSpec, Scenario
from cellfab.fabric import Fabric
from cellfab.genetic import CorruptedCodeError, encode_genetic
from cellfab.netlist import parse_netlist
from cellfab.place import compile_netlist
from cellfab.report import metrics
from cellfab.scenarios import BUNDLED_SCENARIOS, load_scenario
from cellfab.sim import run_raw

from helpers import (
    cell_named, compare_steady_state, output_records, reference_eval, selector_walk,
)
from test_selective_eval import faulted_scenarios


def edg_scenario(name="t", faults=(), run_until=1200, stimulus_extra=()):
    stim = [(0, n, v) for n, v in START_PERMITTED.items()] + list(stimulus_extra)
    return Scenario(
        name=name, application="edg", stimulus=stim,
        faults=list(faults), run_until=run_until, seed=1,
    )


def restore_times(result):
    return [s.restore_time for s in metrics(result.trace).syndromes if s.restore_time is not None]


def heal_times(s):
    """(deactivate, reroute, restore) times of one trace-derived syndrome."""
    return [s.deactivate_time, s.reroute_time, s.restore_time]


# ---- local healing -------------------------------------------------------


def test_local_heal_uses_lowest_spare_and_reloads_code():
    fault = FaultSpec(kind="permanent_gfb", cell=CellId(0, 0, "F"), time=400, flip=1)
    res = run_raw(edg_scenario(faults=[fault]))
    s = res.syndromes[0]
    assert str(s.chosen_spare) == "L0.R0"
    times = heal_times(metrics(res.trace).syndromes[0])
    assert None not in times and times == sorted(times)
    spare = cell_named(res.fabric, "L0.R0")
    assert spare.health is CellHealth.SPARE_ACTIVE
    assert spare.config == res.trace.program.configs[s.function_index]


def _y_healed_from(code_of):
    """A run in which y (L0.F1) heals onto L0.R0, on a fresh compile whose
    spare code for y is ``code_of(program)``: the program of a bundled
    application is shared, and no test may write it."""
    nl = parse_netlist(
        "input a : int16\nnode x = ADD(a, imm) imm=1\nnode y = ADD(x, imm) imm=2\noutput o = y\n"
    )
    program = compile_netlist(nl)
    program.spare_codes[1] = code_of(program)
    fault = FaultSpec(kind="permanent_gfb", cell=CellId(0, 1, "F"), time=100, stuck=0)
    sc = Scenario(name="t", application="inline", faults=[fault], run_until=1800,
                  stimulus=[(0, "a", 5), (900, "a", 10), (1500, "a", 20)])
    return Engine(program, sc).run()


def test_restore_configures_the_spare_from_its_genetic_code():
    # the stored code is SUB's, so from the restore at 205 on, in its local
    # evaluation and in every wave after it, o = y = x - 2, not x + 2
    res = _y_healed_from(lambda p: encode_genetic(replace(p.configs[1], opcode=Opcode.SUB)))
    assert [(r.time, r.value) for r in res.trace.records if r.signal == "o" and r.time >= 205] == [
        (205, 4), (370, 4), (670, 4), (970, 9), (1270, 9), (1570, 19),
    ]
    assert cell_named(res.fabric, "L0.R0").config.opcode is Opcode.SUB


def test_restore_checks_the_parity_of_the_spare_code():
    # no fault kind corrupts a stored code yet; one flipped bit is caught
    # by the decode that configures the spare
    with pytest.raises(CorruptedCodeError):
        _y_healed_from(lambda p: p.spare_codes[1] ^ (1 << 40))


def test_action_order_timestamps():
    res = run_raw(load_scenario("edg_permanent_bt"))
    for s in metrics(res.trace).syndromes:
        deactivate, reroute, restore = heal_times(s)
        assert deactivate <= reroute <= restore


def test_transient_syndrome_never_raised():
    res = run_raw(load_scenario("edg_transient3"))
    assert res.syndromes == []
    assert metrics(res.trace).alarm == "none"


def test_healing_soundness_random_stimuli():
    # healed fabric equals the ideal reference for fresh random vectors
    rng = random.Random(42)
    nl = resolve_application("edg").netlist
    names = nl.input_names()
    vectors = []
    extra = []
    for i in range(12):
        vec = {n: rng.randint(0, 1) for n in names}
        vectors.append(vec)
        t = 900 + i * 300
        extra.extend((t, n, v) for n, v in vec.items())
    fault = FaultSpec(kind="permanent_gfb", cell=CellId(0, 0, "F"), time=400, flip=1)
    res = run_raw(edg_scenario(faults=[fault], run_until=900 + 12 * 300 + 300, stimulus_extra=extra))
    trace = res.trace

    def window_outputs(t_lo, t_hi):
        out = {}
        for r in output_records(trace):
            if t_lo <= r.time < t_hi:
                out[r.signal] = r.value
        return out

    for i, vec in enumerate(vectors):
        t = 900 + i * 300
        expect, _ = reference_eval(nl, vec)
        assert window_outputs(t, t + 300) == expect, f"vector {i} diverged"


def test_capacity_four_faults_one_layer_healed_locally():
    faults = [
        FaultSpec(kind="permanent_gfb", cell=CellId(0, slot, "F"), time=400 + 300 * slot, flip=1)
        for slot in range(4)
    ]
    res = run_raw(edg_scenario(faults=faults, run_until=2400))
    assert len(res.syndromes) == 4
    spares = sorted(str(s.chosen_spare) for s in res.syndromes)
    assert spares == ["L0.R0", "L0.R1", "L0.R2", "L0.R3"]
    nl = resolve_application("edg").netlist
    expect, _ = reference_eval(nl, START_PERMITTED)
    assert compare_steady_state(res.trace, expect, max(restore_times(res))) == []


def test_spare_of_spare_goes_global():
    faults = [
        FaultSpec(kind="permanent_gfb", cell=CellId(0, 0, "F"), time=400, flip=1),
        FaultSpec(kind="permanent_gfb", cell=CellId(0, 0, "R"), time=850, flip=1),
    ]
    res = run_raw(edg_scenario(faults=faults, run_until=1500))
    assert str(res.syndromes[1].chosen_spare) == "L0.R1"


def test_layer_exhaustion_migrates_to_nearest_layer():
    # consume all four layer-0 spares, then one more fault pulls from layer 1
    faults = [
        FaultSpec(kind="permanent_gfb", cell=CellId(0, slot, "F"), time=400 + 300 * slot, flip=1)
        for slot in range(4)
    ]
    faults.append(FaultSpec(kind="permanent_gfb", cell=CellId(0, 0, "R"), time=2000, flip=1))
    res = run_raw(edg_scenario(faults=faults, run_until=3000))
    assert str(res.syndromes[4].chosen_spare) == "L1.R0"
    nl = resolve_application("edg").netlist
    expect, _ = reference_eval(nl, START_PERMITTED)
    assert compare_steady_state(res.trace, expect, max(restore_times(res))) == []


def test_allocate_spare_deterministic():
    fabric = Fabric(resolve_application("edg"))
    assert str(fabric.allocate_spare(0)) == "L0.R0"
    cell_named(fabric, "L0.R0").health = CellHealth.SPARE_ACTIVE
    assert str(fabric.allocate_spare(0)) == "L0.R1"
    for slot in range(4):
        cell_named(fabric, f"L0.R{slot}").health = CellHealth.SPARE_ACTIVE
    assert str(fabric.allocate_spare(0)) == "L1.R0"


def test_single_remaining_spare_chosen_regardless_of_distance():
    fabric = Fabric(resolve_application("edg"))
    for layer in range(4):
        for slot in range(4):
            cell_named(fabric, f"L{layer}.R{slot}").health = CellHealth.SPARE_ACTIVE
    cell_named(fabric, "L3.R2").health = CellHealth.SPARE_IDLE
    assert str(fabric.allocate_spare(0)) == "L3.R2"
    cell_named(fabric, "L3.R2").health = CellHealth.SPARE_ACTIVE
    assert fabric.allocate_spare(0) is None


EDG_FABRIC = Fabric(resolve_application("edg"))
EDG_SPARES = EDG_FABRIC.spares


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    st.lists(st.sampled_from(["idle", "active", "claimed"]),
             min_size=len(EDG_SPARES), max_size=len(EDG_SPARES)),
    st.integers(0, EDG_FABRIC.program.placement.layer_count - 1),
)
def test_allocate_spare_is_nearest_free_spare(states, from_layer):
    fabric = EDG_FABRIC
    # "claimed" spares are claimed by earlier allocate_spare calls: with
    # the idle ones held back, each is the lowest free spare of its layer
    for cell, state in zip(EDG_SPARES, states):
        cell.health = CellHealth.SPARE_IDLE if state == "claimed" else CellHealth.SPARE_ACTIVE
    for cell, state in zip(EDG_SPARES, states):
        if state == "claimed":
            assert fabric.allocate_spare(cell.cell_id.layer) == cell.cell_id
    for cell, state in zip(EDG_SPARES, states):
        if state == "idle":
            cell.health = CellHealth.SPARE_IDLE
    free = fabric.free_spares()
    assert len(free) == states.count("idle")
    nearest = sorted(free, key=lambda c: (abs(c.layer - from_layer), c.layer, c.slot))
    first = fabric.allocate_spare(from_layer)
    assert first == (nearest[0] if nearest else None)
    # a claimed spare goes to no second syndrome
    assert first not in fabric.free_spares()
    assert fabric.allocate_spare(from_layer) == (nearest[1] if len(nearest) > 1 else None)


# ---- fail-safe -----------------------------------------------------------

SINGLE_LAYER = (
    "input a : bit\n"
    "input b : bit\n"
    "node g1 = AND(a, b)\n"
    "node g2 = OR(a, b)\n"
    "node g3 = NOT(a)\n"
    "node g4 = AND(g1, g2)\n"
    "output y1 = g4\n"
    "output y2 = g3\n"
)


def single_layer_scenario(fault_count, run_until=None):
    nl = parse_netlist(SINGLE_LAYER, "single")
    program = compile_netlist(nl)
    cells = [CellId(0, s, "F") for s in range(4)] + [CellId(0, s, "R") for s in range(4)]
    faults = []
    for i in range(fault_count):
        target = cells[i % len(cells)]
        faults.append(
            FaultSpec(kind="permanent_gfb", cell=target, time=400 + 400 * i, flip=1)
        )
    stim = [(0, "a", 1), (0, "b", 1)]
    run_until = run_until or (400 + 400 * fault_count + 600)
    sc = Scenario(name="exhaust", application="single", stimulus=stim,
                  faults=faults, run_until=run_until, seed=1)
    return Engine(program, sc).run()


def test_nine_faults_exhaust_and_fail_safe():
    res = single_layer_scenario(9)
    assert metrics(res.trace).alarm == "fail_safe"
    alarms = [r for r in res.trace.records if r.annotation == "alarm"]
    assert len(alarms) == 1  # latching is idempotent
    finals = {}
    for r in res.trace.records:
        if r.annotation == "data" and r.signal in ("y1", "y2"):
            finals[r.signal] = r.value
    assert finals == {"y1": 0, "y2": 0}


def test_healthy_path_never_enters_fail_safe():
    res = single_layer_scenario(4)
    assert metrics(res.trace).alarm == "degraded"
    assert not any(r.annotation == "alarm" for r in res.trace.records)


def test_outputs_pinned_zero_after_fail_safe():
    res = single_layer_scenario(9)
    alarm_time = next(r.time for r in res.trace.records if r.annotation == "alarm")
    for r in res.trace.records:
        if r.annotation == "data" and r.signal in ("y1", "y2") and r.time > alarm_time:
            assert r.value == 0


def test_health_map_snapshot():
    fabric = Fabric(resolve_application("edg"))
    assert not fabric.fail_safe
    assert len(fabric.free_spares()) == 16
    assert cell_named(fabric, "L0.F0").health is CellHealth.HEALTHY
    assert cell_named(fabric, "L0.R0").health is CellHealth.SPARE_IDLE


def test_cell_refuses_an_id_that_is_no_cell_of_the_fabric():
    # a slot or layer out of range must not alias another cell's index
    fabric = Fabric(resolve_application("edg"))
    layers = fabric.program.placement.layer_count
    assert fabric.cell(CellId(0, 3, "F")) is fabric.workers[3]
    assert fabric.cell(CellId(layers - 1, 3, "R")) is fabric.spares[-1]
    for bad in (CellId(0, 4, "F"), CellId(1, -1, "R"), CellId(layers, 0, "F"),
                CellId(-1, 3, "R"), CellId(0, 0, "X")):
        assert not fabric.program.has_cell(bad)
        with pytest.raises(KeyError):
            fabric.cell(bad)


def test_reroute_hands_the_spare_the_bank_without_its_overlay():
    # y (L0.F1) takes a transient on N at 100 that no write drops, as a is
    # stimulated at 0 only, then a permanent fault that heals onto L0.R0
    # (reroute 180, restore 215): the spare takes the values routed in, not
    # the corrupted replica, and evaluates at its restore, as it publishes
    # y's value, not the 0 the deactivate published
    nl = parse_netlist(
        "input a : int16\nnode x = ADD(a, imm) imm=1\nnode y = ADD(x, imm) imm=2\noutput o = y\n"
    )
    program = compile_netlist(nl)
    faults = [
        FaultSpec(kind="transient_register", cell=CellId(0, 1, "F"), time=100,
                  port=Port.NORTH, replica=0, flip=255),
        FaultSpec(kind="permanent_gfb", cell=CellId(0, 1, "F"), time=110, stuck=0),
    ]
    sc = Scenario(name="t", application="inline", faults=faults, run_until=900,
                  stimulus=[(0, "a", 5)])
    engine = Engine(program, sc)
    fabric = engine.fabric
    faulty, spare = fabric.cell(CellId(0, 1, "F")), fabric.cell(CellId(0, 0, "R"))
    bank = fabric.banks[1]
    reroute = fabric.reroute

    def checked_reroute(syndrome):
        assert faulty.registers is bank and bank.overlay  # the case under test
        reroute(syndrome)
        assert spare.registers is bank and faulty.registers is None
        assert bank.overlay == {} and bank.values == [6, 2, 0, 0]

    fabric.reroute = checked_reroute
    records = engine.run().trace.records
    assert [(r.time, r.signal) for r in records if r.annotation == "syndrome_action"] == [
        (145, "heal.L0.F1.deactivate"), (180, "heal.L0.F1.reroute"), (215, "heal.L0.F1.restore"),
    ]
    assert max(r.time for r in records if r.annotation == "masked_transient") == 145
    assert [(r.time, r.value) for r in records if r.signal == "o" and r.time > 145] == [
        (215, 8), (370, 8), (670, 8),
    ]


def test_input_change_in_reroute_window_reaches_spare():
    # fuel_press_ok toggles between reroute (470) and restore (505) of the
    # function on L0.F0 (press_ok): only the rerouted spare can take it
    fault = FaultSpec(kind="permanent_gfb", cell=CellId(0, 0, "F"), time=400, flip=1)
    toggle = (487, "fuel_press_ok", 1 - START_PERMITTED["fuel_press_ok"])
    sc = edg_scenario(faults=[fault], run_until=600, stimulus_extra=[toggle])
    res = run_raw(sc)
    s = metrics(res.trace).syndromes[0]
    assert (s.reroute_time, s.restore_time) == (470, 505)
    assert last_press_ok(res.trace) == last_press_ok(run_raw(sc.without_faults()).trace)


def test_input_change_in_hand_over_window_reaches_spare():
    # fuel_press_ok toggles between deactivate (435) and reroute (470) of
    # the function on L0.F0 (press_ok): the deactivated cell still takes
    # the function's inputs, and reroute hands them to the spare
    fault = FaultSpec(kind="permanent_gfb", cell=CellId(0, 0, "F"), time=400, flip=1)
    toggle = (450, "fuel_press_ok", 1 - START_PERMITTED["fuel_press_ok"])
    sc = edg_scenario(faults=[fault], run_until=600, stimulus_extra=[toggle])
    res = run_raw(sc)
    s = metrics(res.trace).syndromes[0]
    assert (s.deactivate_time, s.reroute_time) == (435, 470)
    assert last_press_ok(res.trace) == last_press_ok(run_raw(sc.without_faults()).trace)


def last_press_ok(trace):
    return [r.value for r in trace.records if r.signal == "fn.press_ok"][-1]


def reroutes_match_selector_walk(program, sc) -> int:
    """Run ``sc`` and check the spare's ports against the selector walk
    at every reroute; returns the number of reroutes."""
    engine = Engine(program, sc)
    fabric = engine.fabric
    reroute = fabric.reroute
    count = 0

    def checked_reroute(syndrome):
        nonlocal count
        reroute(syndrome)
        fn_idx, t = syndrome.function_index, syndrome.detect_time + engine.timing.reroute_delay
        spare = fabric.cell(syndrome.chosen_spare)
        assert spare.registers.values == selector_walk(engine.trace, program, fn_idx, t)
        assert fabric.banks[fn_idx] is spare.registers
        count += 1

    fabric.reroute = checked_reroute
    engine.run()
    return count


def test_reroute_copies_what_the_selectors_draw_in_bundled_scenarios():
    scenarios = [load_scenario(name) for name in BUNDLED_SCENARIOS]
    reroutes = sum(
        reroutes_match_selector_walk(resolve_application(sc.application), sc) for sc in scenarios
    )
    assert reroutes == 5  # edg_permanent_bt 2, edg_multifault4 2, ccs_fc16_permanent 1


def test_reroute_copies_what_the_selectors_draw():
    # the property holds only as far as its cases reach, so they must reroute
    reroutes = []

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(faulted_scenarios())
    def check(case):
        reroutes.append(reroutes_match_selector_walk(*case))

    check()
    assert sum(reroutes) > 0


def test_fabric_run_state_is_the_documented_fields():
    # what a checkpoint of a run copies: a new run-state field must also
    # join the snapshot list of ROADMAP.md's checkpoint item
    assert set(vars(Fabric(resolve_application("edg")))) == {
        "program", "binding", "banks", "workers", "spares", "published", "fail_safe",
    }


def test_engine_run_state_is_the_documented_fields():
    # the engine's part of the same snapshot; a new field must join one of
    # the two sets, and a run-state one also ROADMAP.md's snapshot list
    sc = load_scenario("edg_permanent_bt")
    engine = Engine(resolve_application(sc.application), sc).run()
    # what a checkpoint copies: the schedule (heap, next sequence number,
    # pending local evaluations, each open wave's [base, next_n]), the
    # clock and pass state, the plant, the log and the fabric (pinned above)
    run_state = {
        "_heap", "_seq", "_pending_evals", "_waves", "_last_clock", "_route_repeats",
        "_pristine", "plant_speed", "syndromes", "trace", "fabric",
    }
    # the per-run tables derived from the program and the scenario; the sink
    # lists and the rows hold the banks, so a restored checkpoint rebinds
    # them (``_bind_table``) instead of copying them
    derived = {
        "program", "scenario", "timing", "_output_fns", "_recorded_always", "_wave_entry",
        "_sinks", "_delay_rows", "_rows",
    }
    assert set(vars(engine)) == run_state | derived


def test_cell_run_state_is_the_documented_fields():
    # the per-cell part of the same snapshot: a bank's ``changed`` flag is
    # the one quiet test, so no cached output needs copying beside it;
    # ``evaluate`` is the function ``configure`` bound from ``config``
    fabric = Fabric(resolve_application("edg"))
    cell = fabric.binding[0]
    assert set(vars(cell)) == {
        "cell_id", "config", "registers", "pipeline", "health", "mismatch_streak",
        "injected_permanent", "evaluate",
    }
    assert set(vars(cell.registers)) == {"width_mode", "values", "overlay", "changed"}
