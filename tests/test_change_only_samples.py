"""An internal function's sample is recorded only when its value changes.

A function that drives a primary output is sampled at every publish;
any other, ``fn.<node>``, only when a publish changes its published
value, and its first publish always does.  The reference,
``helpers.FullRecordEngine``, samples every function at every publish.
Dropping each of the reference's internal samples that repeats its
signal's last value must give the kernel's records, record for record,
and both traces must give equal metrics and equal VCDs: ``heal_complete``
compares held values, which a dropped repeat does not change.
"""

import pytest
from hypothesis import given, settings

from cellfab.apps import resolve_application
from cellfab.apps.edg import START_PERMITTED
from cellfab.cell import CellId
from cellfab.engine import Engine, FaultSpec, Scenario, TimingParams
from cellfab.report import metrics, to_vcd
from cellfab.scenarios import BUNDLED_SCENARIOS, load_scenario

from helpers import FullRecordEngine, held_at
from test_selective_eval import faulted_scenarios
from test_wave_paths import scenarios


def drop_repeats(records, program):
    """``records`` without the samples of a function that drives no
    primary output which repeat that signal's last sample."""
    thinned = {names[0] for fn, names in program.signals.items()
               if fn not in program.output_binding.values()}
    last = {}
    kept = []
    for r in records:
        if r.annotation == "data" and r.signal in thinned:
            if r.signal in last and last[r.signal] == r.value:
                continue
            last[r.signal] = r.value
        kept.append(r)
    return kept


def metrics_or_error(trace, sc, golden=None):
    try:
        return metrics(trace, sc, golden=golden)
    except ValueError as exc:  # an output with no sample before run_until
        return str(exc)


def assert_thins_the_full_record(program, sc: Scenario):
    """The kernel's trace against the reference's: returns the kernel's
    trace and how many records the rule dropped."""
    res = Engine(program, sc).run()
    full = FullRecordEngine(program, sc).run()
    assert res.trace.records == drop_repeats(full.trace.records, program)
    assert to_vcd(res.trace) == to_vcd(full.trace)
    full_golden = FullRecordEngine(program, sc.without_faults()).run().trace
    assert metrics_or_error(res.trace, sc) == metrics_or_error(full.trace, sc, golden=full_golden)
    return res.trace, len(full.trace.records) - len(res.trace.records)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(scenarios())
def test_change_only_samples_thin_the_full_record(case):
    assert_thins_the_full_record(*case)


def test_change_only_samples_thin_the_full_record_under_faults():
    # the cases must drop repeats, mismatch, heal, mask and run out of spares
    seen = set()

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(faulted_scenarios())
    def check(case):
        trace, dropped = assert_thins_the_full_record(*case)
        if dropped:
            seen.add("dropped")
        seen.update(r.annotation for r in trace.records)
        if any(r.signal.endswith(".restore") for r in trace.records):
            seen.add("healed")

    check()
    assert {"dropped", "mismatch", "masked_transient", "syndrome_action", "alarm", "healed"} <= seen


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_bundled_scenarios_thin_the_full_record(name):
    sc = load_scenario(name)
    _trace, dropped = assert_thins_the_full_record(resolve_application(sc.application), sc)
    assert dropped > 0


def test_output_samples_are_recorded_at_every_publish():
    # ccs_step's throttle repeats at most periods, and every one stays
    sc = load_scenario("ccs_step")
    program = resolve_application(sc.application)
    res = Engine(program, sc).run().trace.records
    full = FullRecordEngine(program, sc).run().trace.records
    for name in program.output_binding:
        assert [r for r in res if r.signal == name] == [r for r in full if r.signal == name]


# ---- heal_complete on held values ------------------------------------------


def campaign_scenario(flips: dict[int, tuple[str, ...]], t0: int, chain: list[str]) -> Scenario:
    """An edg fault-campaign op: 12 periods of 300 ns at START_PERMITTED
    with the named inputs flipped in period k, and a chain of permanent
    flips, one per cell, 150 ns apart from ``t0``."""
    stimulus = [
        (k * 300, name, value ^ (name in flips.get(k, ())))
        for k in range(12)
        for name, value in START_PERMITTED.items()
    ]
    faults = [
        FaultSpec(kind="permanent_gfb", cell=CellId.parse(cell), time=t0 + j * 150, flip=1)
        for j, cell in enumerate(chain)
    ]
    return Scenario(name="campaign", application="edg", stimulus=stimulus, faults=faults,
                    timing=TimingParams(stimulus_period=300), run_until=3600)


CHAIN = ["L2.F3", "L2.R0", "L2.R1", "L2.R2", "L2.R3", "L1.R0", "L1.R1", "L1.R2", "L1.R3"]

# seed 3, op 14 of the campaign: syndrome[0] (L2.F3, restored at 615)
# heals at 810, not at 860.  The run's fn.start_ok holds 0 from the
# deactivation at 545, and the golden twin holds 1 until its 810 sample
# changes it to 0.  At 810 the run's function is deactivated again
# (L2.R1, from 755 to its restore at 825), so it publishes nothing there:
# the held values agree at 810.  The run's next sample, 1 at 825 from the
# faulty spare L2.R2, disagrees; the first run sample to agree is the 0
# that L2.R2's deactivation publishes at 860.
SEED3_OP14 = campaign_scenario(
    {0: ("fuel_press_ok", "field_flash_ok"), 2: ("battery_ok",),
     4: ("overspeed", "field_flash_ok"),
     5: ("lockout_tripped", "estop", "start_manual", "start_auto", "battery_ok", "breaker_open"),
     6: ("start_manual", "battery_ok"), 7: ("crank_relay_ok",), 8: ("coolant_ok",),
     9: ("crank_relay_ok",), 10: ("maint_mode", "overspeed")},
    352, CHAIN[:6],
)

# seed 1, op 24: syndrome[1] (L2.R0, restored at 915) heals at 1020, not
# at 950.  The golden twin holds 1 from 810 to 1110.  At 950 the run's
# spare L2.R1 samples 1 in its wave slot, but its second mismatch
# deactivates it at the same time, which publishes 0: the run holds 0
# from 950 until the restored L2.R2 publishes 1 at 1020.
SEED1_OP24 = campaign_scenario(
    {0: ("battery_ok",), 1: ("fuel_press_ok", "breaker_open"), 2: ("start_auto",),
     3: ("start_manual", "field_flash_ok"), 4: ("overspeed",),
     7: ("estop", "field_flash_ok", "breaker_open"), 8: ("lockout_tripped",),
     9: ("lube_press_ok",)},
    551, CHAIN,
)


@pytest.mark.parametrize("engine", [Engine, FullRecordEngine])
def test_heal_complete_moves_earlier_to_an_agreement_between_samples(engine):
    sc = SEED3_OP14
    program = resolve_application("edg")
    run = engine(program, sc).run().trace
    golden = engine(program, sc.without_faults()).run().trace
    s = metrics(run, sc, golden=golden).syndromes[0]
    assert (s.cell, s.restore_time, s.heal_complete) == ("L2.F3", 615, 810)
    times = [615, 809, 810]
    assert held_at(run, "fn.start_ok", times) == [0, 0, 0]
    assert held_at(golden, "fn.start_ok", times) == [1, 1, 0]
    assert [(r.time, r.value) for r in run.records
            if r.signal == "fn.start_ok" and 755 < r.time < 860] == [(825, 1)]


@pytest.mark.parametrize("engine", [Engine, FullRecordEngine])
def test_heal_complete_moves_later_past_a_sample_overwritten_at_its_time(engine):
    sc = SEED1_OP24
    program = resolve_application("edg")
    run = engine(program, sc).run().trace
    golden = engine(program, sc.without_faults()).run().trace
    s = metrics(run, sc, golden=golden).syndromes[1]
    assert (s.cell, s.restore_time, s.heal_complete) == ("L2.R0", 915, 1020)
    assert [r.value for r in run.records if r.signal == "fn.start_ok" and r.time == 950] == [1, 0]
    times = [915, 950, 1019, 1020]
    assert held_at(run, "fn.start_ok", times) == [0, 0, 0, 1]
    assert held_at(golden, "fn.start_ok", times) == [1, 1, 1, 1]
