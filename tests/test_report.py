"""Trace exports and metrics: CSV/VCD fidelity, golden-diff soundness."""

import re
from bisect import bisect_right
from operator import itemgetter

import pytest
from hypothesis import given, settings, strategies as st

from cellfab.apps import resolve_application
from cellfab.cell import CellId, WidthMode
from cellfab.engine import FaultSpec, Scenario, TimingParams, Trace, TraceRecord
from cellfab.report import (
    _first_agreement,
    _held_values,
    _vcd_id,
    format_metrics,
    from_csv,
    metrics,
    to_csv,
    to_vcd,
)
from cellfab.scenarios import BUNDLED_SCENARIOS, load_scenario
from cellfab.sim import run_raw

from helpers import output_records


def parse_vcd(text: str):
    """Minimal independent VCD reader: returns (vars, changes).

    vars: id -> (name, width); changes: list of (time, id, value) with
    value None for x.  Raises on malformed structure.
    """
    vars_: dict[str, tuple[str, int]] = {}
    changes = []
    time = None
    in_defs = True
    lines = iter(text.splitlines())
    for line in lines:
        line = line.strip()
        if not line:
            continue
        if in_defs:
            if line.startswith("$var"):
                m = re.fullmatch(r"\$var wire (\d+) (\S+) (\S+) \$end", line)
                if not m:
                    raise ValueError(f"bad $var line: {line!r}")
                vars_[m.group(2)] = (m.group(3), int(m.group(1)))
            elif line.startswith("$enddefinitions"):
                in_defs = False
            elif line.startswith("$") and not line.endswith("$end"):
                raise ValueError(f"unterminated directive: {line!r}")
            continue
        if line in ("$dumpvars", "$end"):
            continue
        if line.startswith("#"):
            time = int(line[1:])
            continue
        if line.startswith("b"):
            bits, ident = line[1:].split()
            value = None if bits == "x" else int(bits, 2)
        else:
            value = None if line[0] == "x" else int(line[0])
            ident = line[1:]
        if ident not in vars_:
            raise ValueError(f"change for undeclared id {ident!r}")
        changes.append((time, ident, value))
    return vars_, changes


@pytest.fixture(scope="module")
def faultfree():
    return run_raw(load_scenario("edg_faultfree"))


def empty_trace():
    return Trace(
        scenario_name="empty", application="edg", timing=TimingParams(), seed=0
    )


class TestCsv:
    def test_header_and_columns(self, faultfree):
        text = to_csv(faultfree.trace)
        lines = text.splitlines()
        assert lines[0] == "# scenario: edg_faultfree"
        assert "# timing: cell_delay=35" in text
        header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_idx] == "time_ns,signal,value,annotation"

    def test_empty_trace_is_header_only(self):
        t = empty_trace()
        t.complete = True
        text = to_csv(t)
        assert text.splitlines()[-1] == "time_ns,signal,value,annotation"

    def test_roundtrip_reproduces_records(self, faultfree):
        text = to_csv(faultfree.trace)
        back = from_csv(text)
        assert back.records == faultfree.trace.records
        assert back.timing == faultfree.trace.timing
        assert back.scenario_name == faultfree.trace.scenario_name
        assert list(back.inputs.items()) == list(faultfree.trace.inputs.items())
        assert list(back.outputs.items()) == list(faultfree.trace.outputs.items())

    def test_roundtrip_keeps_the_version_the_file_names(self, faultfree):
        lines = to_csv(faultfree.trace).splitlines()
        lines[4] = "# version: cellfab 0.0.9"
        text = "\n".join(lines) + "\n"
        back = from_csv(text)
        assert back.version == "0.0.9"
        assert to_csv(back) == text

    def test_signal_table_follows_the_version_line(self, faultfree):
        lines = to_csv(faultfree.trace).splitlines()
        assert lines[4].startswith("# version: ")
        assert lines[5].startswith("# inputs: fuel_press_ok:bit lube_press_ok:bit ")
        assert lines[6] == "# outputs: EngineStart:bit OpenAirStartFuel_Valves:bit"
        assert lines[7] == "time_ns,signal,value,annotation"

    def test_signal_table_keeps_int16_declarations(self):
        res = run_raw(load_scenario("ccs_step"))
        back = from_csv(to_csv(res.trace))
        assert back.inputs["brake"] is WidthMode.INT16  # declared int16, holds 0 or 1
        assert back.outputs == res.trace.outputs

    def test_first_engine_start_row_at_245(self, faultfree):
        text = to_csv(faultfree.trace)
        row = next(l for l in text.splitlines() if l.split(",")[1:2] == ["EngineStart"])
        assert row.startswith("245,EngineStart,1,data")


class TestVcd:
    def test_loads_in_independent_parser(self, faultfree):
        vars_, changes = parse_vcd(to_vcd(faultfree.trace))
        names = {n for n, _ in vars_.values()}
        assert {"EngineStart", "OpenAirStartFuel_Valves", "estop"} <= names
        assert changes, "expected at least the initial dump"

    def test_constant_signal_single_entry(self, faultfree):
        vars_, changes = parse_vcd(to_vcd(faultfree.trace))
        ident = next(i for i, (n, _) in vars_.items() if n == "EngineStart")
        entries = [(t, v) for t, i, v in changes if i == ident]
        assert entries == [(0, None), (245, 1)]

    def test_timescale_and_initial_dump(self, faultfree):
        text = to_vcd(faultfree.trace)
        assert "$timescale 1ns $end" in text
        assert text.index("#0") < text.index("$dumpvars")

    def test_wave_fidelity(self, faultfree):
        # every recorded output change appears in the VCD at its time
        vars_, changes = parse_vcd(to_vcd(faultfree.trace))
        by_name = {}
        for t, i, v in changes:
            by_name.setdefault(vars_[i][0], []).append((t, v))
        seen = {}
        expected = {}
        for r in faultfree.trace.records:
            if r.annotation != "data" or not r.signal == "EngineStart":
                continue
            if seen.get(r.signal) != r.value:
                expected.setdefault(r.signal, []).append((r.time, r.value))
                seen[r.signal] = r.value
        assert by_name["EngineStart"][1:] == expected["EngineStart"]

    def test_the_last_sample_at_a_time_wins(self):
        # ccs_fc16_permanent's throttle reads 31, then 0, at 250535 ns
        trace = run_raw(load_scenario("ccs_fc16_permanent")).trace
        samples = [r.value for r in trace.records if (r.time, r.signal) == (250535, "throttle")]
        assert samples == [31, 0]
        vars_, changes = parse_vcd(to_vcd(trace))
        throttle_id = next(i for i, (n, _) in vars_.items() if n == "throttle")
        assert [v for t, i, v in changes if (t, i) == (250535, throttle_id)] == [0]
        # there 31 repeats the value before it; here the first sample is a change too
        trace = empty_trace()
        trace.outputs = {"y": WidthMode.INT16}
        trace.records = [TraceRecord(t, "y", v, "data") for t, v in [(0, 0), (10, 5), (10, 7)]]
        _, changes = parse_vcd(to_vcd(trace))
        assert [v for t, _, v in changes if t == 10] == [7]

    def test_a_change_reverted_at_its_time_is_no_change(self):
        # y is 0 before 10 and 0 at its end: #10 must not repeat it
        trace = empty_trace()
        trace.outputs = {"y": WidthMode.BIT}
        trace.records = [TraceRecord(t, "y", v, "data") for t, v in [(0, 0), (10, 1), (10, 0)]]
        text = to_vcd(trace)
        assert "#10" not in text.splitlines()
        _, changes = parse_vcd(text)
        assert [(t, v) for t, _, v in changes] == [(0, 0)]
        # a signal that changes for good keeps its change beside a reverted one
        trace.outputs["z"] = WidthMode.BIT
        trace.records = [
            TraceRecord(t, name, v, "data")
            for t, name, v in [(0, "y", 0), (0, "z", 0), (10, "y", 1), (10, "z", 1), (10, "y", 0)]
        ]
        vars_, changes = parse_vcd(to_vcd(trace))
        z_id = next(i for i, (n, _) in vars_.items() if n == "z")
        assert [(t, i, v) for t, i, v in changes if t == 10] == [(10, z_id, 1)]

    def test_transient_masked_wave_identical_to_golden(self):
        masked = run_raw(load_scenario("edg_transient3"))
        golden = run_raw(load_scenario("edg_faultfree"))
        assert to_vcd(masked.trace) == to_vcd(golden.trace)

    def test_int16_vector_variables(self):
        res = run_raw(load_scenario("ccs_step"))
        vars_, changes = parse_vcd(to_vcd(res.trace))
        widths = {n: w for n, w in vars_.values()}
        assert widths["throttle"] == 16
        throttle_id = next(i for i, (n, _) in vars_.items() if n == "throttle")
        assert any(v and v > 1 for t, i, v in changes if i == throttle_id)

    @pytest.mark.parametrize("name", BUNDLED_SCENARIOS)
    def test_var_widths_are_the_netlist_declarations(self, name):
        sc = load_scenario(name)
        nl = resolve_application(sc.application).netlist
        declared = dict(nl.inputs) | {o: nl.widths[node] for o, node in nl.outputs.items()}
        vars_, _ = parse_vcd(to_vcd(run_raw(sc).trace))
        widths = {n: w for n, w in vars_.values()}
        assert set(widths) == set(declared)
        for n, w in widths.items():
            assert w == (1 if declared[n] is WidthMode.BIT else 16), n


class TestMetrics:
    def test_faultfree_metrics(self, faultfree):
        sc = load_scenario("edg_faultfree")
        m = metrics(faultfree.trace, sc)
        assert m.fault_free_latency == 245
        assert m.faults_injected == 0
        assert m.erroneous_output_samples == 0
        assert m.alarm == "none"

    def test_metrics_deterministic(self, faultfree):
        sc = load_scenario("edg_faultfree")
        a = format_metrics(metrics(faultfree.trace, sc), sc.timing)
        b = format_metrics(metrics(faultfree.trace, sc), sc.timing)
        assert a == b

    def test_metrics_without_scenario_reports_unavailable(self, faultfree):
        m = metrics(faultfree.trace)
        assert m.faults_injected is None
        assert m.erroneous_output_samples is None
        text = format_metrics(m, faultfree.trace.timing)
        assert "faults_injected unavailable" in text

    def test_incomplete_trace_rejected(self):
        with pytest.raises(ValueError, match="incomplete"):
            metrics(empty_trace())

    def test_golden_diff_soundness(self):
        # erroneous samples = 0 iff output records match the golden run
        sc3 = load_scenario("edg_transient3")
        res = run_raw(sc3)
        golden = run_raw(sc3.without_faults())
        m = metrics(res.trace, sc3, golden=golden.trace)
        same = output_records(res.trace) == output_records(golden.trace)
        assert (m.erroneous_output_samples == 0) == same
        assert same

    def test_golden_diff_counts_divergence(self):
        sc = load_scenario("edg_multifault4")
        res = run_raw(sc)
        m = metrics(res.trace, sc)
        assert m.erroneous_output_samples > 0
        assert m.heal_complete == 570

    def test_faults_injected_counts_applied_faults_only(self):
        # the second fault lands on a cell already deactivated: a no-op
        sc = load_scenario("edg_faultfree")
        sc.run_until = 1200
        sc.faults = [
            FaultSpec(kind="permanent_gfb", cell=CellId(0, 0, "F"), time=t, flip=1)
            for t in (400, 500)
        ]
        res = run_raw(sc)
        applied = [(r.time, r.value) for r in res.trace.records if r.signal == "fault.L0.F0"]
        assert applied == [(400, 1), (500, 0)]
        assert metrics(res.trace, sc).faults_injected == 1

    def test_output_named_alarm_is_compared_and_dumped(self, tmp_path):
        nl = tmp_path / "alarm.nl"
        nl.write_text("input a : bit\ninput b : bit\nnode n1 = AND(a, b)\noutput alarm = n1\n")
        sc = Scenario(
            name="alarm_out",
            application=str(nl),
            stimulus=[(0, "a", 0), (0, "b", 1)],
            faults=[FaultSpec(kind="permanent_gfb", cell=CellId(0, 0, "F"), time=300, flip=1)],
            run_until=600,
        )
        res = run_raw(sc)
        assert any(
            r.signal == "alarm" and r.value == 1 and r.annotation == "data"
            for r in res.trace.records
        )
        assert metrics(res.trace, sc).erroneous_output_samples >= 1
        vars_, _ = parse_vcd(to_vcd(res.trace))
        assert "alarm" in {n for n, _ in vars_.values()}

    def test_trace_outputs_are_the_declared_outputs(self, faultfree):
        assert faultfree.trace.outputs == {
            "EngineStart": WidthMode.BIT,
            "OpenAirStartFuel_Valves": WidthMode.BIT,
        }
        assert list(faultfree.trace.inputs)[:2] == ["fuel_press_ok", "lube_press_ok"]


def test_vcd_ids_count_in_printable_ascii():
    assert [_vcd_id(i) for i in (0, 1, 93, 94, 95, 94 + 94 * 94)] == [
        "!", '"', "~", "!!", '!"', "!!!",
    ]


def held_value(golden: list[tuple[int, int]], t: int):
    """Value of the last golden sample at or before ``t`` (None before the
    first), by bisection: the reference for the walk of ``_held_values``."""
    i = bisect_right(golden, t, key=itemgetter(0))
    return golden[i - 1][1] if i else None


@st.composite
def sample_lists(draw):
    """A golden sample list and samples to compare with it, both in time
    order as a trace records them (times may repeat)."""
    by_time = itemgetter(0)
    golden = sorted(draw(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 3)))),
                    key=by_time)
    samples = sorted(draw(st.lists(st.tuples(st.integers(-1, 45), st.integers(0, 3)))),
                     key=by_time)
    return samples, golden


@settings(derandomize=True, deadline=None, max_examples=300)
@given(sample_lists())
def test_erroneous_count_reads_the_last_golden_sample_at_or_before(case):
    samples, golden = case
    times = [t for t, _ in samples]
    assert _held_values(times, golden) == [held_value(golden, t) for t in times]


def without_repeats(samples: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """``samples`` without each sample that repeats the value before it."""
    kept = []
    for sample in samples:
        if not kept or kept[-1][1] != sample[1]:
            kept.append(sample)
    return kept


@settings(derandomize=True, deadline=None, max_examples=300)
@given(sample_lists(), st.integers(-1, 45))
def test_heal_time_is_the_first_held_agreement_and_ignores_repeats(case, start):
    samples, golden = case
    times = sorted({start, *(t for t, _ in samples + golden if t > start)})
    expected = next((t for t in times
                     if held_value(samples, t) is not None
                     and held_value(samples, t) == held_value(golden, t)), None)
    assert _first_agreement(samples, golden, start) == expected
    assert _first_agreement(without_repeats(samples), without_repeats(golden), start) == expected
