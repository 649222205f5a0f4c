"""The golden twin inside ``metrics``: a trace an Engine ran on the very
scenario object passed in needs no compile, and a fault-free one is its
own twin; every other trace gets a twin simulated from the application's
program.  Either way the metrics equal those against a freshly compiled
twin.  ``resolve_application`` compiles a bundled application once per
process, so each compile count starts from a cleared cache."""

import copy
import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

import cellfab.apps
from cellfab.apps import resolve_application, resolve_netlist
from cellfab.apps.edg import START_PERMITTED
from cellfab.cell import CellId, Port
from cellfab.engine import Engine, FaultKind, FaultSpec, Scenario
from cellfab.place import compile_netlist
from cellfab.report import from_csv, metrics, to_csv
from cellfab.scenarios import BUNDLED_SCENARIOS, load_scenario
from cellfab.sim import run_raw

EDG = resolve_application("edg")
EDG_PERIOD = 300


def fresh_twin_metrics(trace, scenario):
    """Metrics against a twin simulated from a program compiled anew."""
    fresh = compile_netlist(resolve_netlist(scenario.application))
    golden = Engine(fresh, scenario.without_faults()).run().trace
    return metrics(trace, scenario, golden=golden)


@pytest.fixture
def counters(monkeypatch):
    """Counts of ``Engine.run`` and ``compile_netlist`` calls from here on.

    A test zeroes them with ``from_cold`` before the call it counts."""
    counts = {"run": 0, "compile": 0}
    engine_run = Engine.run
    compile_netlist = cellfab.apps.compile_netlist

    def counting_run(self):
        counts["run"] += 1
        return engine_run(self)

    def counting_compile(netlist):
        counts["compile"] += 1
        return compile_netlist(netlist)

    monkeypatch.setattr(Engine, "run", counting_run)
    monkeypatch.setattr(cellfab.apps, "compile_netlist", counting_compile)
    return counts


def from_cold(counters):
    """Zero the counts and clear the cache of bundled programs, so that
    a compile the counted call needs is counted."""
    cellfab.apps._compile_bundled.cache_clear()
    counters.update(run=0, compile=0)


def test_a_bundled_application_compiles_once(counters):
    from_cold(counters)
    edg = resolve_application("edg")
    assert counters["compile"] == 1
    assert resolve_application("edg") is edg
    assert counters["compile"] == 1
    assert resolve_application("ccs") is not edg
    assert counters["compile"] == 2


def test_a_netlist_path_compiles_on_every_call(counters, tmp_path):
    path = tmp_path / "chain.nl"
    path.write_text("input a : bit\nnode g = NOT(a)\noutput y = g\n")
    from_cold(counters)
    first = resolve_application(str(path))
    assert resolve_application(str(path)) is not first
    assert counters["compile"] == 2
    path.write_text("input a : bit\nnode g = NOT(a)\nnode h = NOT(g)\noutput y = h\n")
    assert len(resolve_application(str(path)).configs) == 2  # the edited file
    assert counters["compile"] == 3


@pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
def test_bundled_metrics_equal_a_freshly_compiled_twin(name):
    sc = load_scenario(name)
    result = run_raw(sc)
    assert dataclasses.asdict(metrics(result.trace, sc)) == dataclasses.asdict(
        fresh_twin_metrics(result.trace, sc)
    )


PLACED = [CellId(layer, slot, "F") for layer, slot in sorted(EDG.placement.slots.values())]
SPARES = [
    CellId(layer, slot, "R") for layer in range(EDG.placement.layer_count) for slot in range(4)
]


@st.composite
def edg_scenarios(draw):
    """A short edg run: random vectors near start-permitted, 0-4 faults."""
    periods = draw(st.integers(2, 5))
    run_until = periods * EDG_PERIOD
    stimulus = []
    for k in range(periods):
        for name, value in START_PERMITTED.items():
            if k == 0 or draw(st.integers(0, 9)) == 0:
                stimulus.append((k * EDG_PERIOD, name, value ^ (k > 0)))
    faults = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(list(FaultKind)))
        time = draw(st.integers(0, run_until - EDG_PERIOD))
        if kind is FaultKind.PERMANENT_GFB:
            cell = draw(st.sampled_from(PLACED + SPARES))
            value = draw(st.sampled_from([{"flip": 1}, {"stuck": 0}, {"stuck": 1}]))
            faults.append(FaultSpec(kind=kind.value, cell=cell, time=time, **value))
        else:
            extra = {}
            if kind is FaultKind.INTERMITTENT_BURST:
                extra = {"period": draw(st.sampled_from([35, 70, 150])),
                         "count": draw(st.integers(1, 2))}
            faults.append(FaultSpec(
                kind=kind.value, cell=draw(st.sampled_from(PLACED)), time=time,
                port=draw(st.sampled_from(list(Port))), replica=draw(st.integers(0, 2)),
                flip=1, **extra,
            ))
    return Scenario(name="gen", application="edg", stimulus=stimulus, faults=faults,
                    run_until=run_until)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(edg_scenarios())
def test_generated_metrics_equal_a_freshly_compiled_twin(sc):
    result = Engine(EDG, sc).run()  # one shared program, as a campaign would
    assert dataclasses.asdict(metrics(result.trace, sc)) == dataclasses.asdict(
        fresh_twin_metrics(result.trace, sc)
    )


def test_fault_free_metrics_neither_runs_nor_compiles(counters):
    sc = load_scenario("ccs_step")
    result = run_raw(sc)
    from_cold(counters)
    m = metrics(result.trace, sc)
    assert counters == {"run": 0, "compile": 0}
    assert m.erroneous_output_samples == 0


def test_faulted_metrics_runs_the_twin_without_compiling(counters):
    sc = load_scenario("edg_permanent_bt")
    result = run_raw(sc)
    from_cold(counters)
    metrics(result.trace, sc)
    assert counters == {"run": 1, "compile": 0}


def test_csv_trace_gets_a_simulated_twin(counters):
    sc = load_scenario("edg_faultfree")
    text = to_csv(run_raw(sc).trace)
    # flip the first EngineStart sample: a trace taken as its own twin
    # would count no erroneous sample
    lines = text.splitlines()
    i = next(i for i, line in enumerate(lines) if ",EngineStart," in line)
    t, signal, value, annotation = lines[i].split(",")
    lines[i] = ",".join((t, signal, str(1 - int(value)), annotation))
    parsed = from_csv("\n".join(lines) + "\n")
    assert parsed.program is None and parsed.scenario is None
    from_cold(counters)
    m = metrics(parsed, sc)
    assert counters == {"run": 1, "compile": 1}
    assert m.erroneous_output_samples == 1


def test_equal_but_distinct_scenario_gets_a_simulated_twin(counters):
    sc = load_scenario("edg_faultfree")
    trace = run_raw(sc).trace
    sample = next(r for r in trace.records if r.signal == "EngineStart")
    sample.value = 1 - sample.value
    twin = copy.deepcopy(sc)
    assert twin == sc and twin is not sc
    from_cold(counters)
    m = metrics(trace, twin)
    assert counters == {"run": 1, "compile": 1}
    assert m.erroneous_output_samples == 1
    assert metrics(trace, sc).erroneous_output_samples == 0  # its own twin


def test_trace_with_fault_records_is_not_its_own_twin():
    # the run decides, not the scenario as it reads afterwards: clearing
    # its faults must not make a faulted trace its own twin, nor change
    # the faults it counts as detected and healed
    sc = load_scenario("edg_multifault4")
    trace = run_raw(sc).trace
    sc.faults = []
    assert metrics(trace, sc).erroneous_output_samples == 6
    assert metrics(trace, copy.copy(sc)).erroneous_output_samples == 6
    for name in ("edg_multifault4", "edg_transient3", "edg_permanent_bt", "ccs_fc16_permanent"):
        sc = load_scenario(name)
        trace = run_raw(sc).trace
        before = dataclasses.asdict(metrics(trace, sc))
        sc.faults = []
        assert dataclasses.asdict(metrics(trace, sc)) == before, name


@pytest.mark.parametrize("name", ["edg_permanent_bt", "edg_multifault4", "ccs_fc16_permanent"])
def test_program_reused_after_a_healed_run_gives_the_same_twin(name):
    sc = load_scenario(name)
    program = resolve_application(sc.application)
    healed = Engine(program, sc).run()
    assert healed.syndromes
    compiled = compile_netlist(resolve_netlist(sc.application))
    # no run writes the program it shares: every field, so that none is missed
    assert vars(program).keys() == vars(compiled).keys()
    for table, value in vars(compiled).items():
        assert getattr(program, table) == value, table
    reused = Engine(program, sc.without_faults()).run().trace
    fresh = Engine(compiled, sc.without_faults()).run().trace
    assert reused.records == fresh.records
