"""cellfab benchmark: one closed-loop client, seeded workloads, checked ops.

Run from the repository root:

    python3 cellbench/run.py --workload ccs_cruise --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, ``--trace 1``
runs the traced pass that gives the per-layer metrics, and leaving
``--trace`` out runs both and prints every metric.  Each metric is printed
as ``workload name value unit``; a ``details`` line carries the failure
accounting, the export digest and the machine; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every op completed and passed its check.

Times are host times scaled to the reference host (see calibrate.py):
each op's host time is multiplied by ``REFERENCE_S`` over the mean of
the two calibrations that bracket it.  The raw host figures are printed as
``host.*`` next to them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from calibrate import REFERENCE_S, calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_RUNS = 9  # fresh interpreters per run; import time alone spreads ~1.5x
DIGEST_OPS = 32  # ops 0..31 of a seed are hashed, so two result files compare

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_ratio": "ratio",
}
# failed_ratio is 0 on a healthy run, which a bounded metric cannot be;
# the result line carries the same fact as "attempted" and "failed"
RESULT_END_TO_END = ("ops_per_s", "op_ms.p50", "op_ms.p90", "setup_s", "peak_rss_mb")

LAYER_TIMES = (
    "scenarios.load_ms",
    "netlist.parse_ms",
    "place.compile_ms",
    "fabric.build_ms",
    "engine.run_ms",
    "sim.golden_ms",
    "report.metrics_ms",
    "report.export_ms",
    "oracle.check_ms",
)
LAYER_COUNTS = (
    "engine.publishes",
    "engine.records_masked",
    "engine.records_mismatch",
    "engine.records_heal",
    "engine.records_alarm",
    "fabric.syndromes",
    "fabric.spares_activated",
)
CAMPAIGN = ("masked", "healed", "fail_safe", "silent")
PER_LAYER_UNITS = {
    **{name: "ms" for name in LAYER_TIMES},
    "engine.host_us_per_publish": "us",
    "engine.heal_surcharge_ms": "ms",
    "report.golden_share": "ratio",
    **{name: "count" for name in LAYER_COUNTS},
    "engine.sim_ns": "ns",
    **{f"campaign.{c}": "count" for c in CAMPAIGN},
    "trace_overhead_ratio": "ratio",
}


def import_workloads():
    """Import cellfab from this checkout's src/, never from elsewhere, and
    then the workloads built on it."""
    sys.path.insert(0, str(SRC))
    try:
        import cellfab
    except ImportError as exc:
        sys.exit(f"error: cannot import cellfab from {SRC}: {exc}")
    if not Path(cellfab.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: cellfab imported from {cellfab.__file__}, not from {SRC}")
    import workloads

    return workloads


def measure_setup(app) -> tuple[float, float]:
    """Import cellfab plus the one-time program preparation (the first
    compile of the workload's application), in fresh interpreters.

    Returns the medians of the scaled and of the raw host seconds.
    """
    prep = f"from cellfab.apps import resolve_application\nresolve_application({app!r})\n"
    code = (
        "import statistics, sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import cellfab\n"
        + (prep if app else "")
        + "t1 = time.perf_counter()\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "from calibrate import calibrate\n"
        "print(t1 - t0, statistics.median(calibrate() for _ in range(3)))\n"
    )
    # as for an installed package: imports read cached bytecode, which the
    # first interpreter writes whatever PYTHONDONTWRITEBYTECODE says
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    scaled, raw = [], []
    for i in range(SETUP_RUNS + 1):  # the first one only fills the bytecode cache
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=60, check=True,
        )
        if i:
            host_s, cal_s = map(float, done.stdout.split())
            scaled.append(host_s * REFERENCE_S / cal_s)
            raw.append(host_s)
    return statistics.median(scaled), statistics.median(raw)


class Spans:
    """perf_counter spans of one op, in host ms, keyed by layer metric name."""

    def __init__(self):
        self.ms: dict[str, float] = {}

    def __call__(self, name: str) -> "_Span":
        return _Span(self.ms, name)


class _Span:
    __slots__ = ("ms", "name", "t0")

    def __init__(self, ms, name):
        self.ms, self.name = ms, name

    def __enter__(self):
        self.t0 = time.perf_counter()

    def __exit__(self, exc_type, *_):
        if exc_type is None:  # a span that raised did not complete its work
            self.ms[self.name] = self.ms.get(self.name, 0.0) + (time.perf_counter() - self.t0) * 1e3


_NO_SPAN = contextlib.nullcontext()


def untraced(_name: str) -> contextlib.nullcontext:
    return _NO_SPAN


class Tally:
    """Attempted and failed ops, failures by exception type."""

    def __init__(self):
        self.attempted = 0
        self.failed: Counter = Counter()
        self.first_error: dict[str, str] = {}

    def fail(self, exc: Exception, i: int, digest=None) -> None:
        kind = type(exc).__name__
        self.failed[kind] += 1
        self.first_error.setdefault(kind, f"op {i}: {str(exc)[:300]}")
        if digest is not None:
            digest.update(f"op {i} failed {kind}\n".encode())


def latency(prefix: str, seconds: list[float], busy: float) -> dict[str, float]:
    ms = sorted(x * 1e3 for x in seconds)
    return {
        f"{prefix}ops_per_s": len(ms) / busy,
        f"{prefix}op_ms.p50": statistics.median(ms),
        f"{prefix}op_ms.p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
    }


def scales(cal_s: list[float]) -> list[float]:
    """Per-op factor to the reference host, from the calibrations that
    bracket the op (the one before it and the one before the next op)."""
    return [2 * REFERENCE_S / (a + b) for a, b in zip(cal_s, cal_s[1:])]


def run_untraced(w, seconds: float, tally: Tally) -> dict:
    """Closed loop: the next op starts when the previous one is checked."""
    ops: list[tuple[float, bool]] = []  # host seconds, completed and checked
    cal_s: list[float] = []
    digest = hashlib.sha256()
    first = None
    end = time.perf_counter() + seconds
    for i in itertools.count():
        if i and time.perf_counter() >= end:
            break
        inp = w.inputs(i)
        tally.attempted += 1
        cal_s.append(calibrate())
        t0 = time.perf_counter()
        try:
            out = w.op(inp, untraced)
        except Exception as exc:  # the op raised
            ops.append((time.perf_counter() - t0, False))
            tally.fail(exc, i, digest if i < DIGEST_OPS else None)
            continue
        ops.append((time.perf_counter() - t0, True))
        try:
            w.check(inp, out)
        except Exception as exc:  # the op's outputs are wrong
            ops[-1] = (ops[-1][0], False)
            tally.fail(exc, i, digest if i < DIGEST_OPS else None)
            continue
        if i < DIGEST_OPS:
            exported = w.exports(out)
            first = first or (i, exported)
            for text in exported:
                digest.update(text.encode())
    cal_s.append(calibrate())
    repeat_identical = None
    if first is not None:  # the first completed op, run again, must give the same bytes
        repeat_identical = w.exports(w.op(w.inputs(first[0]), untraced)) == first[1]

    scaled = [(dt * f, ok) for (dt, ok), f in zip(ops, scales(cal_s))]
    stats = {}
    if any(ok for _, ok in ops):
        stats.update(latency("", [dt for dt, ok in scaled if ok], sum(dt for dt, _ in scaled)))
        stats.update(latency("host.", [dt for dt, ok in ops if ok], sum(dt for dt, _ in ops)))
    stats["host.calibration_ms"] = statistics.median(cal_s) * 1e3
    extra = {
        "completed_ops": sum(ok for _, ok in ops),
        "digest_ops": min(tally.attempted, DIGEST_OPS),
        "export_sha256": digest.hexdigest(),
        "repeat_op_identical": repeat_identical,
    }
    return {"metrics": stats, "extra": extra}


def run_traced(w, seconds: float, tally: Tally, layer_counts) -> dict:
    """Per-layer pass: each op runs traced and untraced, the traced run
    first on even ops and second on odd ones so that order effects cancel
    in trace_overhead_ratio, then its layers alone.  Only ops that
    complete and pass their check contribute times and counts; the
    campaign outcome of an op that fails its check counts."""
    rows: list[tuple[int, dict[str, float]]] = []  # (calibration index, host ms)
    counts: dict[str, list[int]] = defaultdict(list)
    campaign: Counter = Counter()
    cal_s: list[float] = []
    end = time.perf_counter() + seconds
    for i in itertools.count():
        if i and time.perf_counter() >= end:
            break
        inp = w.inputs(i)
        tally.attempted += 1
        cal_s.append(calibrate())
        sp = Spans()
        out = None
        op_ms = {}
        order = [("traced_op_ms", sp), ("plain_op_ms", untraced)]
        if i % 2:
            order.reverse()
        try:
            for key, span in order:
                t0 = time.perf_counter()
                done = w.op(inp, span)
                op_ms[key] = (time.perf_counter() - t0) * 1e3
                if span is sp:
                    out = done
            w.check(inp, out)
            w.diagnose(inp, out, sp)
        except Exception as exc:  # raised or failed its check
            tally.fail(exc, i)
            if out is not None and out.campaign:
                campaign[out.campaign] += 1
            continue
        sp.ms.update(op_ms)
        rows.append((len(cal_s) - 1, sp.ms))
        for name, value in layer_counts(out).items():
            counts[name].append(value)
        if out.campaign:
            campaign[out.campaign] += 1
    cal_s.append(calibrate())

    factor = scales(cal_s)
    spans: dict[str, list[float]] = defaultdict(list)
    surcharge, golden_share = [], []
    for k, raw in rows:
        ms = {name: v * factor[k] for name, v in raw.items()}
        for name, v in ms.items():
            spans[name].append(v)
        surcharge.append(ms["engine.run_ms"] - ms["sim.golden_ms"])
        # the golden rerun inside the op's metrics call, as a share of the op
        inside = ms.get("report.metrics_call_ms", ms["report.metrics_ms"]) - ms["report.metrics_ms"]
        golden_share.append(max(inside, 0.0) / ms["traced_op_ms"])
    traced_ms, plain_ms = spans.pop("traced_op_ms", []), spans.pop("plain_op_ms", [])
    stats: dict[str, float] = {name: statistics.median(v) for name, v in spans.items()}
    stats.update({name: statistics.fmean(v) for name, v in counts.items()})
    if rows:
        stats["engine.host_us_per_publish"] = (
            sum(spans["engine.run_ms"]) * 1e3 / max(1, sum(counts["engine.publishes"]))
        )
        stats["engine.heal_surcharge_ms"] = statistics.median(surcharge)
        stats["report.golden_share"] = statistics.median(golden_share)
        stats["trace_overhead_ratio"] = statistics.median(traced_ms) / statistics.median(plain_ms)
        for c in CAMPAIGN:
            stats[f"campaign.{c}"] = campaign[c]
    return {"metrics": stats, "extra": {"traced_ops": len(rows)}}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "implementation": platform.python_implementation(),
        "arch": platform.machine(),
        "system": platform.system(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    args = parser.parse_args(argv)

    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload](args.seed)
    tally = Tally()
    shown: dict[str, float] = {}
    wanted: set[str] = set()
    details: dict = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds}

    if args.trace in (0, None):
        shown["setup_s"], shown["host.setup_s"] = measure_setup(w.app)
        e2e = run_untraced(w, args.seconds, tally)
        shown.update(e2e["metrics"])
        shown["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        shown["failed_ratio"] = sum(tally.failed.values()) / tally.attempted
        details.update(e2e["extra"])
        wanted.update(RESULT_END_TO_END)
    if args.trace in (1, None):
        layers = run_traced(w, args.seconds, tally, workloads.layer_counts)
        shown.update(layers["metrics"])
        details.update(layers["extra"])
        wanted.update(PER_LAYER_UNITS)

    units = {**END_TO_END_UNITS, **PER_LAYER_UNITS}
    result_metrics = {
        name: {"value": shown[name], "unit": units[name]} for name in units
        if name in wanted and name in shown
    }
    failed = sum(tally.failed.values())
    details["absent"] = sorted(wanted - set(result_metrics))
    details["failures_by_type"] = dict(tally.failed)
    details["first_error"] = tally.first_error
    details["machine"] = machine()
    correct = failed == 0 and details.get("repeat_op_identical") is not False and not details["absent"]

    for name, value in shown.items():
        unit = units.get(name.removeprefix("host."), "ms")
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": result_metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
