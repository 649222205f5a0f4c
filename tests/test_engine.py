"""Event kernel behaviour: waves, determinism, injection, classification."""

import pytest

from cellfab.apps import resolve_application
from cellfab.apps.edg import START_PERMITTED
from cellfab.cell import CellId, Port
from cellfab.engine import (
    Engine,
    FaultSpec,
    Scenario,
    TimingParams,
    expand_faults,
)
from cellfab.netlist import parse_netlist
from cellfab.oracle import NetlistOracle
from cellfab.place import compile_netlist
from cellfab.report import to_csv
from cellfab.scenarios import BUNDLED_SCENARIOS, load_scenario
from cellfab.sim import run_raw

from helpers import cell_named, compare_steady_state, reference_eval, run_full


def edg_scenario(name="t", faults=(), run_until=600, stimulus_extra=()):
    stim = [(0, n, v) for n, v in START_PERMITTED.items()] + list(stimulus_extra)
    return Scenario(
        name=name,
        application="edg",
        stimulus=stim,
        faults=list(faults),
        run_until=run_until,
        seed=1,
    )


def samples(trace, signal):
    return [(r.time, r.value) for r in trace.records if r.signal == signal and r.annotation == "data"]


def test_outputs_first_valid_at_245():
    res = run_raw(edg_scenario())
    for out in ("EngineStart", "OpenAirStartFuel_Valves"):
        assert samples(res.trace, out)[0] == (245, 1)


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_finished_waves_drop_their_base_entry(name):
    # only the last clock's wave may still be open when the run stops
    sc = load_scenario(name)
    engine = Engine(resolve_application(sc.application), sc)
    engine.run()
    assert len(engine._waves) <= 1


def test_determinism_byte_identical():
    a = run_raw(load_scenario("edg_multifault4"))
    b = run_raw(load_scenario("edg_multifault4"))
    assert to_csv(a.trace) == to_csv(b.trace)


def test_event_times_nondecreasing():
    res = run_raw(load_scenario("edg_permanent_bt"))
    times = [r.time for r in res.trace.records]
    assert times == sorted(times)


def test_stimulus_step_tracks_reference():
    # drop a permissive mid-run; outputs follow the ideal evaluation
    extra = [(300, "estop", 1)]
    res = run_raw(edg_scenario(run_until=900, stimulus_extra=extra))
    nl = resolve_application("edg").netlist
    after = dict(START_PERMITTED, estop=1)
    expect, _ = reference_eval(nl, after)
    assert compare_steady_state(res.trace, expect, 545) == []
    assert expect["EngineStart"] == 0


def test_east_port_write_reaches_evaluation():
    # MUX exercises the East port from a primary input
    nl = parse_netlist(
        "input sel : int16\ninput a : int16\ninput b : int16\n"
        "node m = MUX(sel, a, b)\noutput y = m\n"
    )
    program = compile_netlist(nl)
    stim = [(0, "sel", 0), (0, "a", 5), (0, "b", 9), (300, "b", 11), (600, "sel", 1)]
    sc = Scenario(name="mux", application="mux", stimulus=stim, run_until=900)
    res = Engine(program, sc).run()
    got = samples(res.trace, "y")
    assert got == [(35, 5), (335, 5), (635, 11), (935, 11)][:len(got)]


def test_delay_cell_matches_oracle_lockstep():
    for stages in (1, 2, 3):
        text = (
            "input a : int16\n"
            f"node d = DELAY(a) delay={stages}\n"
            "output y = d\n"
        )
        nl = parse_netlist(text)
        program = compile_netlist(nl)
        values = [3, 8, 1, 9, 4, 7, 2]
        stim = [(i * 300, "a", v) for i, v in enumerate(values)]
        sc = Scenario(name="d", application="d", stimulus=stim, run_until=len(values) * 300)
        res = Engine(program, sc).run()
        sim = [v for _, v in samples(res.trace, "y")]
        oracle = NetlistOracle(nl)
        expect = [oracle.outputs(oracle.step({"a": v}))["y"] for v in values]
        assert sim[: len(expect)] == expect


def test_transient_is_masked_and_logged():
    fault = FaultSpec(
        kind="transient_register", cell=CellId(0, 0, "F"), time=180,
        port=Port.NORTH, replica=1, flip=1,
    )
    res = run_raw(edg_scenario(faults=[fault]))
    golden = run_raw(edg_scenario())
    for out in ("EngineStart", "OpenAirStartFuel_Valves"):
        assert samples(res.trace, out) == samples(golden.trace, out)
    masked = [r for r in res.trace.records if r.annotation == "masked_transient"]
    assert masked and masked[0].time == 180
    assert masked[0].signal == "cell.L0.F0.N" and masked[0].value == 0b010


def test_permanent_classified_after_threshold():
    fault = FaultSpec(kind="permanent_gfb", cell=CellId(0, 0, "F"), time=400, flip=1)
    res = run_raw(edg_scenario(faults=[fault], run_until=900))
    mismatches = [r.time for r in res.trace.records if r.annotation == "mismatch"]
    assert mismatches[:2] == [400, 435]
    assert res.syndromes[0].detect_time == 435  # second strike confirms


def test_detection_threshold_override():
    import dataclasses

    fault = FaultSpec(kind="permanent_gfb", cell=CellId(0, 0, "F"), time=400, flip=1)
    sc = edg_scenario(faults=[fault], run_until=900)
    sc = dataclasses.replace(sc, timing=TimingParams(check_threshold=3))
    res = run_raw(sc)
    assert res.syndromes[0].detect_time == 470  # three strikes at K=3


def test_burst_expands_to_spaced_transients():
    burst = FaultSpec(
        kind="intermittent_burst", cell=CellId(0, 0, "F"), time=180,
        port=Port.NORTH, replica=0, flip=1, period=60, count=3,
    )
    expanded = expand_faults([burst])
    assert [f.time for f in expanded] == [180, 240, 300]
    assert all(f.kind == "transient_register" for f in expanded)
    program = resolve_application("edg")
    with pytest.raises(ValueError, match="at t=300 is after run_until=299"):
        # its last transient comes too late: the scenario check refuses it
        Engine(program, edg_scenario(faults=[burst], run_until=299))


def test_inject_into_deactivated_cell_is_noop():
    faults = [
        FaultSpec(kind="permanent_gfb", cell=CellId(0, 0, "F"), time=300, flip=1),
        FaultSpec(kind="permanent_gfb", cell=CellId(0, 0, "F"), time=700, flip=1),
    ]
    res = run_raw(edg_scenario(faults=faults, run_until=1200))
    rows = [r for r in res.trace.records if r.signal == "fault.L0.F0"]
    assert [r.value for r in rows] == [1, 0]
    assert len(res.syndromes) == 1


def test_compare_steady_state_faultfree():
    res = run_raw(edg_scenario())
    nl = resolve_application("edg").netlist
    expect, _ = reference_eval(nl, START_PERMITTED)
    assert compare_steady_state(res.trace, expect, 245) == []


def test_compare_steady_state_requires_coverage():
    res = run_raw(edg_scenario())
    with pytest.raises(ValueError, match="before"):
        compare_steady_state(res.trace, {"EngineStart": 1}, 10_000)


def test_scenario_requires_full_t0_stimulus():
    sc = Scenario(name="bad", application="edg", stimulus=[(0, "estop", 0)], run_until=100)
    with pytest.raises(ValueError, match="t=0"):
        run_raw(sc)


def test_stimulus_after_run_until_is_refused():
    # checked last for its entry: a value that does not fit reports its width first
    program = resolve_application("edg")
    late = edg_scenario(stimulus_extra=[(601, "estop", 1)])
    with pytest.raises(ValueError, match=r"^stimulus estop at t=601 is after run_until=600$"):
        late.validate(program)
    with pytest.raises(ValueError, match="does not fit bit"):
        edg_scenario(stimulus_extra=[(601, "estop", 2)]).validate(program)
    edg_scenario(stimulus_extra=[(600, "estop", 1)]).validate(program)  # at run_until: a clock


def test_unknown_application():
    sc = Scenario(name="bad", application="nope", stimulus=[], run_until=100)
    with pytest.raises((ValueError, FileNotFoundError)):
        run_raw(sc)


def test_three_way_disagreement_escalates_undetermined():
    # two distinct corruptions on one word-wide port leave no majority;
    # the cell falls back to replica 0 (here untouched, so the output is
    # still right), flags all three replicas, and is watched, not killed
    from cellfab.cell import CellHealth

    nl = parse_netlist(
        "input x : int16\ninput y : int16\nnode s = ADD(x, y)\noutput q = s\n"
    )
    program = compile_netlist(nl)
    faults = [
        FaultSpec(kind="transient_register", cell=CellId(0, 0, "F"), time=100,
                  port=Port.NORTH, replica=1, flip=0xFF),
        FaultSpec(kind="transient_register", cell=CellId(0, 0, "F"), time=120,
                  port=Port.NORTH, replica=2, flip=0xF0),
    ]
    sc = Scenario(name="threeway", application="adders",
                  stimulus=[(0, "x", 5), (0, "y", 2)], faults=faults, run_until=200)
    res = Engine(program, sc).run()
    masks = [r for r in res.trace.records if r.annotation == "masked_transient"]
    assert any(r.value == 0b111 for r in masks)
    assert res.syndromes == []
    assert cell_named(res.fabric, "L0.F0").health is CellHealth.SUSPECT_TRANSIENT
    assert samples(res.trace, "q")[-1][1] == 7  # replica-0 fallback was correct


def test_three_way_disagreement_is_not_rechecked_until_rewritten():
    # the W port is wired to the immediate and never rewritten, so its
    # disagreement is seen once at each injection and once per wave after
    from cellfab.cell import CellHealth

    program = compile_netlist(
        parse_netlist("input x : int16\nnode s = ADD(x, imm) imm=3\noutput q = s\n")
    )
    faults = [
        FaultSpec(kind="transient_register", cell=CellId(0, 0, "F"), time=100,
                  port=Port.WEST, replica=1, flip=0xFF),
        FaultSpec(kind="transient_register", cell=CellId(0, 0, "F"), time=120,
                  port=Port.WEST, replica=2, flip=0xF0),
    ]
    for run_until, rows in ((3000, 11), (12000, 41)):
        sc = Scenario(name="threeway", application="adders", stimulus=[(0, "x", 5)],
                      faults=faults, run_until=run_until)
        res = Engine(program, sc).run()
        masks = [r for r in res.trace.records if r.annotation == "masked_transient"]
        assert len(masks) == rows
        assert [r.time for r in masks[:3]] == [100, 120, 335]
        assert res.syndromes == []
        assert cell_named(res.fabric, "L0.F0").health is CellHealth.SUSPECT_TRANSIENT
        assert samples(res.trace, "q")[-1] == (run_until - 265, 8)


def test_masked_transient_never_schedules_downstream():
    fault = FaultSpec(
        kind="transient_register", cell=CellId(0, 0, "F"), time=180,
        port=Port.NORTH, replica=0, flip=1,
    )
    # both runs record every publish: a spurious downstream evaluation
    # republishes an unchanged value, which the kernel does not record
    res = run_full(edg_scenario(faults=[fault]))
    golden = run_full(edg_scenario())
    faulted_fn = [r for r in res.trace.records if r.signal.startswith("fn.") and r.time not in (180,)]
    golden_fn = [r for r in golden.trace.records if r.signal.startswith("fn.")]
    assert faulted_fn == golden_fn  # only the injection-time re-evaluation differs


def test_mid_wave_transient_keeps_outputs_golden():
    # injected after the period's clock but before the cell's own wave
    # slot: the cell must not publish early, its wave evaluation votes the
    # corrupted replica instead, and no output sample differs from golden
    extra = [(300, "estop", 1)]
    golden = run_raw(edg_scenario(run_until=900, stimulus_extra=extra))
    for cell, t, slot in ((CellId(3, 1, "F"), 511, 545), (CellId(2, 2, "F"), 454, 475)):
        fault = FaultSpec(
            kind="transient_register", cell=cell, time=t,
            port=Port.NORTH, replica=1, flip=1,
        )
        res = run_raw(edg_scenario(faults=[fault], run_until=900, stimulus_extra=extra))
        for out in ("EngineStart", "OpenAirStartFuel_Valves"):
            assert samples(res.trace, out) == samples(golden.trace, out)
        masked = [r.time for r in res.trace.records if r.annotation == "masked_transient"]
        assert masked == [slot]


def test_mid_wave_permanent_waits_for_its_slot():
    # a permanent fault injected before its cell's wave slot (475 for
    # perm_ok on L2.F2) is first evaluated at that slot, like a transient:
    # no function publishes ahead of the golden twin, both recording
    # every publish, so an early one that repeats the held value shows
    extra = [(300, "estop", 1)]
    golden = run_full(edg_scenario(run_until=900, stimulus_extra=extra))
    fault = FaultSpec(kind="permanent_gfb", cell=CellId(2, 2, "F"), time=460, stuck=0)
    res = run_full(edg_scenario(faults=[fault], run_until=900, stimulus_extra=extra))
    for signal in ("fn.perm_ok", "EngineStart", "OpenAirStartFuel_Valves"):
        assert samples(res.trace, signal) == samples(golden.trace, signal)
