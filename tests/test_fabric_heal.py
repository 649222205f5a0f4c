"""Healing layers: local spares, global migration, fail-safe posture."""

import random

from cellfab.apps import resolve_application
from cellfab.apps.edg import START_PERMITTED
from cellfab.cell import CellHealth, CellId
from cellfab.engine import Engine, FaultSpec, Scenario, compare_steady_state
from cellfab.fabric import Alarm, Fabric, HealAction
from cellfab.netlist import parse_netlist
from cellfab.oracle import reference_eval
from cellfab.place import compile_netlist
from cellfab.sim import run_raw


def edg_scenario(name="t", faults=(), run_until=1200, stimulus_extra=()):
    stim = [(0, n, v) for n, v in START_PERMITTED.items()] + list(stimulus_extra)
    return Scenario(
        name=name, application="edg", stimulus=stim,
        faults=list(faults), run_until=run_until, seed=1,
    )


def restore_times(result):
    return [t for s in result.syndromes for a, t in s.actions if a is HealAction.RESTORE]


# ---- local healing -------------------------------------------------------


def test_local_heal_uses_lowest_spare_and_reloads_code():
    fault = FaultSpec(kind="permanent_gfb", cell=CellId(0, 0, "F"), time=400, flip=1)
    res = run_raw(edg_scenario(faults=[fault]))
    s = res.syndromes[0]
    assert str(s.chosen_spare) == "L0.R0"
    assert [a.value for a, _ in s.actions] == ["deactivate", "reroute", "restore"]
    spare = res.fabric.cells["L0.R0"]
    assert spare.health is CellHealth.SPARE_ACTIVE
    assert spare.config == res.fabric.functions[s.function_index].config


def test_action_order_timestamps():
    res = run_raw(load_bundled("edg_permanent_bt"))
    for s in res.syndromes:
        ts = dict((a.value, t) for a, t in s.actions)
        assert ts["deactivate"] <= ts["reroute"] <= ts["restore"]


def load_bundled(name):
    from cellfab.scenarios import load_scenario

    return load_scenario(name)


def test_transient_syndrome_never_raised():
    from cellfab.scenarios import load_scenario

    res = run_raw(load_scenario("edg_transient3"))
    assert res.syndromes == []
    assert res.fabric.alarm is Alarm.NONE


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
        for r in trace.records:
            if r.annotation == "data" and not r.signal.startswith(("in.", "fn.", "cell.", "heal.", "fault.")):
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
    fabric.cells["L0.R0"].health = CellHealth.SPARE_ACTIVE
    assert str(fabric.allocate_spare(0)) == "L0.R1"
    for slot in range(4):
        fabric.cells[f"L0.R{slot}"].health = CellHealth.SPARE_ACTIVE
    assert fabric.allocate_spare(0) is None
    assert str(fabric.allocate_spare_global(0)) == "L1.R0"


def test_single_remaining_spare_chosen_regardless_of_distance():
    fabric = Fabric(resolve_application("edg"))
    for layer in range(4):
        for slot in range(4):
            fabric.cells[f"L{layer}.R{slot}"].health = CellHealth.SPARE_ACTIVE
    fabric.cells["L3.R2"].health = CellHealth.SPARE_IDLE
    assert str(fabric.allocate_spare_global(0)) == "L3.R2"
    fabric.cells["L3.R2"].health = CellHealth.SPARE_ACTIVE
    assert fabric.allocate_spare_global(0) is None


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
    assert res.fabric.alarm is Alarm.FAIL_SAFE
    alarms = [r for r in res.trace.records if r.annotation == "alarm"]
    assert len(alarms) == 1  # latching is idempotent
    finals = {}
    for r in res.trace.records:
        if r.annotation == "data" and r.signal in ("y1", "y2"):
            finals[r.signal] = r.value
    assert finals == {"y1": 0, "y2": 0}


def test_healthy_path_never_enters_fail_safe():
    res = single_layer_scenario(4)
    assert res.fabric.alarm is Alarm.DEGRADED
    assert not any(r.annotation == "alarm" for r in res.trace.records)


def test_outputs_pinned_zero_after_fail_safe():
    res = single_layer_scenario(9)
    alarm_time = next(r.time for r in res.trace.records if r.annotation == "alarm")
    for r in res.trace.records:
        if r.annotation == "data" and r.signal in ("y1", "y2") and r.time > alarm_time:
            assert r.value == 0


def test_health_map_snapshot():
    fabric = Fabric(resolve_application("edg"))
    snap = fabric.health_map()
    assert snap.alarm is Alarm.NONE
    assert len(snap.free_spares) == 16
    assert snap.cells["L0.F0"] is CellHealth.HEALTHY
    assert snap.cells["L0.R0"] is CellHealth.SPARE_IDLE


def test_input_change_in_reroute_window_reaches_spare():
    # fuel_press_ok toggles between reroute (470) and restore (505) of the
    # function on L0.F0 (press_ok): only the rerouted spare can take it
    fault = FaultSpec(kind="permanent_gfb", cell=CellId(0, 0, "F"), time=400, flip=1)
    toggle = (487, "fuel_press_ok", 1 - START_PERMITTED["fuel_press_ok"])
    sc = edg_scenario(faults=[fault], run_until=600, stimulus_extra=[toggle])
    res = run_raw(sc)
    s = res.syndromes[0]
    assert (s.action_time(HealAction.REROUTE), s.action_time(HealAction.RESTORE)) == (470, 505)

    def last_press_ok(trace):
        return [r.value for r in trace.records if r.signal == "fn.press_ok"][-1]

    assert last_press_ok(res.trace) == last_press_ok(run_raw(sc.without_faults()).trace)
