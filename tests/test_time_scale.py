"""Scaling every time of a scenario by k scales every record time by k and changes nothing else.

Every delay, the stimulus period, ``run_until`` and every stimulus,
fault and burst time are multiplied by k.  The run must then leave the
same records with each time k times as large, the same syndromes at k
times their detection times, the same plant log at k times its clocks
and the same cell state.  The kernel reads time only through the
scenario, so an absolute-time constant or a tie broken by time alone,
such as a wave slot offset that is not a multiple of the cell delay,
fails here (metamorphic testing: Chen, Cheung & Yiu, HKUST-CS98-01,
1998).
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from cellfab.apps import resolve_application
from cellfab.engine import Engine, Scenario, TimingParams
from cellfab.scenarios import BUNDLED_SCENARIOS, load_scenario

from helpers import plant_speeds
from test_selective_eval import cell_state, faulted_scenarios


def scaled(sc: Scenario, k: int) -> Scenario:
    """``sc`` with every delay, the period and every time k times as large."""
    t = sc.timing
    timing = TimingParams(
        cell_delay=k * t.cell_delay, check_threshold=t.check_threshold,
        reroute_delay=k * t.reroute_delay, restore_delay=k * t.restore_delay,
        stimulus_period=k * t.stimulus_period,
    )
    faults = [
        replace(f, time=k * f.time, period=None if f.period is None else k * f.period)
        for f in sc.faults
    ]
    return replace(
        sc, stimulus=[(k * time, name, value) for time, name, value in sc.stimulus],
        faults=faults, timing=timing, run_until=k * sc.run_until,
    )


def assert_scales(program, sc: Scenario, k: int):
    base = Engine(program, sc).run()
    big = Engine(program, scaled(sc, k)).run()
    assert [(k * r.time, r.signal, r.value, r.annotation) for r in base.trace.records] == [
        (r.time, r.signal, r.value, r.annotation) for r in big.trace.records
    ]
    assert [replace(s, detect_time=k * s.detect_time) for s in base.syndromes] == big.syndromes
    speeds = plant_speeds(base.trace, sc.plant)
    assert [(k * t, v) for t, v in speeds] == plant_speeds(big.trace, big.scenario.plant)
    assert cell_state(base.fabric) == cell_state(big.fabric)
    return base


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_bundled_scenario_scales_in_time(name, k):
    sc = load_scenario(name)
    assert_scales(resolve_application(sc.application), sc, k)


def test_generated_faulted_run_scales_in_time():
    # the property holds only as far as its cases reach, so they must
    # mask transients, mismatch, heal and run out of spares
    seen = set()

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(faulted_scenarios(), st.sampled_from([2, 3, 5]))
    def check(case, k):
        res = assert_scales(*case, k)
        seen.update(r.annotation for r in res.trace.records)
        if any(r.signal.endswith(".restore") for r in res.trace.records):
            seen.add("healed")

    check()
    assert {"masked_transient", "mismatch", "syndrome_action", "alarm", "healed"} <= seen
