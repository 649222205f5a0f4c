"""Trace export (CSV, VCD) and healing metrics.

CSV carries the full record stream with a commented header echoing the
run's timing parameters and its signal table; VCD carries the primary
input and output waveforms for waveform-viewer inspection, each as wide
as its netlist declaration.  Metrics compare a run against
its fault-free golden twin to count erroneous output samples and time
the healing of every syndrome.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Optional

from .apps import resolve_application
from .cell import BIT, CellId, WidthMode, excerpt, fit, parse_int
from .engine import (
    ANNOTATIONS,
    Engine,
    FaultKind,
    Scenario,
    TimingParams,
    Trace,
    TraceRecord,
    expand_faults,
)
from .fabric import HealAction
from .scenarios import _section

# ---- CSV ----------------------------------------------------------------

_WIDTHS = {mode.name.lower(): mode for mode in WidthMode}  # the netlist's spelling
_HEADER_KEYS = ("scenario", "application", "timing", "seed", "version", "inputs", "outputs")


def _signal_table(table: dict[str, WidthMode]) -> str:
    return "".join(f" {name}:{mode.name.lower()}" for name, mode in table.items())


def to_csv(trace: Trace) -> str:
    """Deterministic CSV export: header comments, then one row per record."""
    rows = [
        f"# scenario: {trace.scenario_name}",
        f"# application: {trace.application}",
        f"# timing: {trace.timing.describe()}",
        f"# seed: {trace.seed}",
        f"# version: cellfab {trace.version}",
        f"# inputs:{_signal_table(trace.inputs)}",
        f"# outputs:{_signal_table(trace.outputs)}",
        "time_ns,signal,value,annotation",
    ]
    for r in trace.records:
        rows.append(f"{r.time},{r.signal},{r.value},{r.annotation}")
    return "\n".join(rows) + "\n"


def _header_value(key: str, value: str):
    """One header comment's value, typed where the trace needs it."""
    if key == "seed":
        return parse_int(value, "seed")
    if key == "version":
        if not value.startswith("cellfab "):
            raise ValueError(f"bad version {excerpt(repr(value))}")
        return value.removeprefix("cellfab ")
    if key == "timing":
        data = {}
        for part in value.split():
            if part.count("=") != 1:
                raise ValueError(f"timing part {excerpt(repr(part))} is not one key=value")
            k, v = part.split("=")
            if k in data:
                raise ValueError(f"repeated timing part {excerpt(repr(part))}")
            data[k] = parse_int(v, f"timing {excerpt(k)}")
        timing = _section(TimingParams, data, "timing")
        timing.validate()
        return timing
    if key in ("inputs", "outputs"):
        table: dict[str, WidthMode] = {}
        for entry in value.split():
            name, _, width = entry.partition(":")
            if not name or name in table:
                raise ValueError(f"bad {key} entry {excerpt(repr(entry))}")
            if width not in _WIDTHS:
                raise ValueError(
                    f"unknown width {excerpt(repr(width))} of {excerpt(repr(name))}"
                )
            table[name] = _WIDTHS[width]
        return table
    return value


def from_csv(text: str) -> Trace:
    """Parse a CSV export back into a trace (header metadata included).

    A malformed line, an unknown or repeated header key, a row earlier
    than the row before it, or a data row of a declared input or output
    whose value does not fit its width raises ValueError naming its line
    number; a missing one of the seven header lines raises ValueError
    naming it.  Header lines may come anywhere, so widths are checked last.
    """
    meta = {}
    records = []
    linenos = []  # each record's line
    header_seen = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            if line.startswith("#"):
                key, _, value = map(str.strip, line[1:].partition(":"))
                if key not in _HEADER_KEYS:
                    raise ValueError(f"unknown header key {excerpt(repr(key))}")
                if key in meta:
                    raise ValueError(f"repeated header key {key!r}")
                meta[key] = _header_value(key, value)
                continue
            if not line.strip():
                continue
            if not header_seen:
                if line != "time_ns,signal,value,annotation":
                    raise ValueError(f"unexpected CSV header {excerpt(repr(line))}")
                header_seen = True
                continue
            t, signal, value, annotation = line.split(",")
            if annotation not in ANNOTATIONS:
                raise ValueError(f"unknown annotation {excerpt(repr(annotation))}")
            record = TraceRecord(
                parse_int(t, "time"), signal, parse_int(value, "value"), annotation
            )
            if records and record.time < records[-1].time:
                raise ValueError(
                    f"time {excerpt(t)} is before the previous row's {records[-1].time}"
                )
            records.append(record)
            linenos.append(lineno)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    for key in _HEADER_KEYS:
        if key not in meta:
            raise ValueError(f"missing '# {key}:' header line")
    widths = {f"in.{name}": mode for name, mode in meta["inputs"].items()} | meta["outputs"]
    for lineno, r in zip(linenos, records):
        mode = widths.get(r.signal) if r.annotation == "data" else None
        if mode is not None and fit(mode, r.value) != r.value:
            raise ValueError(
                f"line {lineno}: {excerpt(r.signal)}={excerpt(str(r.value))}"
                f" does not fit {mode.name.lower()}"
            )
    meta["scenario_name"] = meta.pop("scenario")  # every other key is its Trace field
    return Trace(**meta, records=records, complete=True)


# ---- VCD ----------------------------------------------------------------


_VCD_ID_CHARS = [chr(c) for c in range(33, 127)]  # the printable ASCII of a VCD identifier
_BYTES = [f"{b:08b}" for b in range(256)]  # an int16 value line's two bytes, high first


def _vcd_id(index: int) -> str:
    out = ""
    index += 1
    while index:
        index, rem = divmod(index - 1, len(_VCD_ID_CHARS))
        out = _VCD_ID_CHARS[rem] + out
    return out


def to_vcd(trace: Trace) -> str:
    """Value-change dump of the primary input and output waveforms.

    One variable per signal of the trace's signal table that has a sample,
    in order of first sample, as wide as its declaration (1 bit or 16);
    timescale 1 ns, initial dump at t=0 (x for signals not yet driven),
    then changes only.
    """
    inputs = {f"in.{name}": mode for name, mode in trace.inputs.items()}
    declared = inputs | trace.outputs
    # one pass folds the records into per-time change sets; of two samples at
    # one time the last wins, and below it is written only if it differs from
    # the value held before that time.  ``last`` is in order of first sample
    last: dict[str, int] = {}
    changes: dict[int, dict[str, int]] = {}
    for r in trace.records:
        signal = r.signal
        if signal in declared and r.annotation == "data" and last.get(signal) != r.value:
            last[signal] = value = r.value
            at = changes.get(r.time)
            if at is None:
                changes[r.time] = {signal: value}
            else:
                at[signal] = value
    signals = list(last)
    ids = {s: _vcd_id(i) for i, s in enumerate(signals)}
    # a 1-bit signal's two value lines; an int16 line is built from its bytes
    byte = _BYTES
    bit_lines = {s: (f"0{ids[s]}", f"1{ids[s]}") for s in signals if declared[s] is BIT}
    lines = [
        f"$version cellfab {trace.version} $end",
        "$timescale 1ns $end",
        "$scope module inputs $end",
    ]
    for s in signals:
        if s in inputs:
            lines.append(f"$var wire {1 if s in bit_lines else 16} {ids[s]} {s[3:]} $end")
    lines += ["$upscope $end", "$scope module outputs $end"]
    for s in signals:
        if s not in inputs:
            lines.append(f"$var wire {1 if s in bit_lines else 16} {ids[s]} {s} $end")
    lines += ["$upscope $end", "$enddefinitions $end", "#0", "$dumpvars"]
    at_zero = changes.pop(0, {})
    for s in signals:
        v, pair = at_zero.get(s), bit_lines.get(s)
        if v is None:
            lines.append(f"x{ids[s]}" if pair else f"bx {ids[s]}")
        else:
            lines.append(pair[v & 1] if pair else f"b{byte[v >> 8 & 255]}{byte[v & 255]} {ids[s]}")
    lines.append("$end")
    held = {s: at_zero.get(s) for s in signals}
    for t in sorted(changes):
        stamped = False  # a time whose changes all changed back gets no stamp
        for s, v in changes[t].items():
            if v != held[s]:
                held[s] = v
                if not stamped:
                    lines.append(f"#{t}")
                    stamped = True
                pair = bit_lines.get(s)
                lines.append(pair[v & 1] if pair else f"b{byte[v >> 8 & 255]}{byte[v & 255]} {ids[s]}")
    return "\n".join(lines) + "\n"


# ---- metrics ------------------------------------------------------------


@dataclass
class SyndromeMetrics:
    cell: str
    detect_time: int
    function_index: Optional[int] = None
    deactivate_time: Optional[int] = None
    reroute_time: Optional[int] = None
    restore_time: Optional[int] = None
    detect_latency: Optional[int] = None  # vs the earliest matching fault spec
    heal_complete: Optional[int] = None  # first agreement with the golden twin post-restore


@dataclass
class HealingMetrics:
    scenario: str
    alarm: str
    fault_free_latency: Optional[int] = None
    faults_injected: Optional[int] = None
    faults_detected: Optional[int] = None
    faults_healed: Optional[int] = None
    erroneous_output_samples: Optional[int] = None
    syndromes: list[SyndromeMetrics] = field(default_factory=list)
    heal_complete: Optional[int] = None
    heal_ratio: Optional[float] = None


def _held_values(times: list[int], samples: list[tuple[int, int]]) -> list[Optional[int]]:
    """The value ``samples`` hold at each of ``times``: that of the last
    sample at or before it, None before the first.

    One forward walk over ``samples``: both lists must be in time order,
    as a trace records them (``from_csv`` rejects a row back in time).
    """
    held_values = []
    i = 0
    held = None
    for t in times:
        while i < len(samples) and samples[i][0] <= t:
            held = samples[i][1]
            i += 1
        held_values.append(held)
    return held_values


def _first_agreement(
    samples: list[tuple[int, int]], golden: list[tuple[int, int]], start: int
) -> Optional[int]:
    """The first time t >= ``start`` at which ``samples`` and ``golden``
    hold one value, or None; t is ``start`` or a later sample time of
    either.  Held values make the answer the same whether a trace records
    every sample or only changes.
    """
    times = sorted({start, *(t for t, _ in samples + golden if t > start)})
    held = _held_values(times, samples)
    for t, value, golden_value in zip(times, held, _held_values(times, golden)):
        if value is not None and value == golden_value:
            return t
    return None


@dataclass
class _TraceScan:
    """What metrics reads of a trace's records, gathered in one pass.

    ``samples`` holds the (time, value) data samples of each output and
    ``fault.*`` row, in time order, as no other is compared;
    ``mismatch`` and ``masked`` hold the record times per cell
    (``L0.F1``) and per cell port (``L0.F1.N``); ``syndromes`` follow
    the order of each cell's first ``syndrome_action``.
    """

    samples: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    syndromes: dict[str, SyndromeMetrics] = field(default_factory=dict)
    mismatch: dict[str, list[int]] = field(default_factory=dict)
    masked: dict[str, list[int]] = field(default_factory=dict)
    alarm: bool = False


# heal.<cell id>.<action>, as Engine._handle_heal writes it
_HEAL_SIGNAL = re.compile(
    r"heal\.(L[0-9]+\.[FR][0-9]+)\.(" + "|".join(a.value for a in HealAction) + ")"
)


def _scan(trace: Trace) -> _TraceScan:
    """Gather a trace's ``_TraceScan``; a ``syndrome_action`` record whose
    signal is not ``heal.<cell id>.<action>`` raises ValueError."""
    scan = _TraceScan()
    outputs = trace.outputs
    # each data signal's sample list, or None if it is not kept: decided once
    kept: dict[str, Optional[list[tuple[int, int]]]] = {}
    for r in trace.records:
        annotation = r.annotation
        if annotation == "data":
            signal = r.signal
            try:
                samples = kept[signal]
            except KeyError:
                keep = signal in outputs or signal.startswith("fault.")
                samples = kept[signal] = [] if keep else None
            if samples is not None:
                samples.append((r.time, r.value))
        elif annotation == "masked_transient":
            scan.masked.setdefault(r.signal[5:], []).append(r.time)
        elif annotation == "mismatch":
            scan.mismatch.setdefault(r.signal[5:], []).append(r.time)
        elif annotation == "syndrome_action":
            heal = _HEAL_SIGNAL.fullmatch(r.signal)
            if heal is None:
                raise ValueError(f"bad heal record signal {excerpt(repr(r.signal))}")
            cell, action = heal.groups()
            s = scan.syndromes.get(cell)
            if s is None:
                s = scan.syndromes[cell] = SyndromeMetrics(
                    cell=cell, detect_time=r.time, function_index=r.value
                )
            setattr(s, f"{action}_time", r.time)  # each action names its field
        elif annotation == "alarm":
            scan.alarm = True
    scan.samples = {signal: samples for signal, samples in kept.items() if samples is not None}
    return scan


def _samples(trace: Trace, signals) -> dict[str, list[tuple[int, int]]]:
    """The (time, value) data samples of each of ``signals``, in one pass."""
    samples: dict[str, list[tuple[int, int]]] = {signal: [] for signal in signals}
    for r in trace.records:
        if r.signal in samples and r.annotation == "data":
            samples[r.signal].append((r.time, r.value))
    return samples


def metrics(
    trace: Trace,
    scenario: Optional[Scenario] = None,
    golden: Optional[Trace] = None,
) -> HealingMetrics:
    """Compute healing metrics for a completed run.

    With the scenario at hand the output samples are diffed against the
    golden twin to count erroneous samples and verify heal completion;
    without it those fields stay unavailable (None) rather than failing.
    Every output of the trace's signal table needs a sample.

    The golden twin is ``golden`` when given.  Otherwise, for a trace an
    ``Engine`` ran on this very ``scenario`` object, it is the trace
    itself when the trace holds no ``fault.*`` record, and else a
    fault-free run of the trace's own program; neither compiles, and the
    faults counted as detected and healed are the run's own.
    Any other trace (parsed from CSV, or passed with a different or
    merely equal scenario) gets a twin simulated from a fresh compile of
    ``scenario.application`` at the trace's own timing, and the faults
    of ``scenario``; the scenario must pass ``Scenario.validate`` on
    that program.  Either way every syndrome must name a cell of the
    program's fabric and a function it places, else ValueError.
    """
    if not trace.complete:
        raise ValueError("trace incomplete: run did not reach its stop time")
    scan = _scan(trace)
    samples = scan.samples
    outputs = list(trace.outputs)
    for o in outputs:
        if o not in samples:
            raise ValueError(f"trace has no sample of output {excerpt(repr(o))}")
    fault_free_latency = max((samples[o][0][0] for o in outputs), default=None)

    alarm = "none"
    if scan.alarm:
        alarm = "fail_safe"
    elif scan.syndromes:
        alarm = "degraded"

    m = HealingMetrics(
        scenario=trace.scenario_name,
        alarm=alarm,
        fault_free_latency=fault_free_latency,
        syndromes=list(scan.syndromes.values()),
    )
    if scenario is None:
        for s in m.syndromes:
            s.heal_complete = s.restore_time
    else:
        _compare_with_golden(m, trace, scan, outputs, scenario, golden)
    m.heal_complete = max(
        (s.heal_complete for s in m.syndromes if s.heal_complete is not None),
        default=None,
    )
    if m.heal_complete is not None and fault_free_latency:
        m.heal_ratio = m.heal_complete / fault_free_latency
    return m


def _compare_with_golden(
    m: HealingMetrics,
    trace: Trace,
    scan: _TraceScan,
    outputs: list[str],
    scenario: Scenario,
    golden: Optional[Trace],
) -> None:
    """Fill the fault counts, erroneous samples and per-syndrome heal times."""
    samples = scan.samples
    fault_samples = [v for s, fs in samples.items() if s.startswith("fault.") for _, v in fs]
    m.faults_injected = fault_samples.count(1)
    # for an in-memory run of this scenario the run, not the scenario as it
    # reads now, says which faults it injected and whether it was fault-free
    if trace.scenario is scenario:
        program, faults = trace.program, trace.faults
        if golden is None and not fault_samples:
            golden = trace
    else:
        program = resolve_application(scenario.application)
        scenario.validate(program)
        faults = expand_faults(scenario.faults)
    for s in m.syndromes:
        if not program.has_cell(CellId.parse(s.cell)):
            raise ValueError(f"syndrome on unknown cell {s.cell}")
        if s.function_index not in program.configs:
            raise ValueError(f"syndrome on {s.cell} names unplaced function {s.function_index}")
    if golden is None:
        # the twin runs at the timing the trace records, which a run's
        # timing overrides may have changed from the scenario's
        twin = replace(scenario.without_faults(), timing=trace.timing)
        golden = Engine(program, twin).run().trace
    # a syndrome's function is read for its heal time only, so its samples
    # take one more pass over each trace, and none when there is no syndrome
    syndrome_signals = {program.signals[s.function_index][0] for s in m.syndromes}
    if syndrome_signals:
        samples = samples | _samples(trace, syndrome_signals)
    golden_samples = samples if golden is trace else _samples(golden, [*outputs, *syndrome_signals])
    m.erroneous_output_samples = 0 if golden is trace else sum(  # a trace agrees with itself
        v != held
        for o in outputs
        for (_, v), held in zip(
            samples[o], _held_values([t for t, _ in samples[o]], golden_samples[o])
        )
    )

    detected = 0
    healed = 0
    for f in faults:
        cid = str(f.cell)
        if f.kind == FaultKind.TRANSIENT_REGISTER:
            key = f"{cid}.{f.port.value}"
            if any(t >= f.time for t in scan.masked.get(key, [])):
                detected += 1
                healed += 1  # masked by the voter: tolerated in place
        else:
            if any(t >= f.time for t in scan.mismatch.get(cid, [])):
                detected += 1
            s = scan.syndromes.get(cid)
            if s is not None and s.detect_latency is None:
                s.detect_latency = s.detect_time - f.time

    # a syndrome is healed at the first time from its restore on at which
    # the function it serves holds the golden twin's value
    for s in m.syndromes:
        if s.restore_time is None:
            continue
        signal = program.signals[s.function_index][0]
        s.heal_complete = _first_agreement(samples[signal], golden_samples[signal], s.restore_time)
        healed += s.heal_complete is not None
    m.faults_detected = detected
    m.faults_healed = healed


def format_metrics(m: HealingMetrics, timing: TimingParams) -> str:
    """Structured key-value text report."""

    def fmt(v):
        return "unavailable" if v is None else v

    lines = [
        f"scenario {m.scenario}",
        f"timing {timing.describe()}",
        f"alarm {m.alarm}",
        f"fault_free_latency_ns {fmt(m.fault_free_latency)}",
        f"faults_injected {fmt(m.faults_injected)}",
        f"faults_detected {fmt(m.faults_detected)}",
        f"faults_healed {fmt(m.faults_healed)}",
        f"erroneous_output_samples {fmt(m.erroneous_output_samples)}",
        f"heal_complete_ns {fmt(m.heal_complete)}",
        f"heal_ratio {'unavailable' if m.heal_ratio is None else f'{m.heal_ratio:.4f}'}",
        f"syndromes {len(m.syndromes)}",
    ]
    for i, s in enumerate(m.syndromes):
        lines.append(
            f"syndrome[{i}] cell={s.cell} detect={s.detect_time}"
            f" deactivate={fmt(s.deactivate_time)} reroute={fmt(s.reroute_time)}"
            f" restore={fmt(s.restore_time)} detect_latency={fmt(s.detect_latency)}"
            f" heal_complete={fmt(s.heal_complete)}"
        )
    return "\n".join(lines) + "\n"
