"""Repeat the benchmark over seeds and summarise its spread.

    python3 cellbench/collect.py --seeds 10 --trace 0 --out cellbench/results/e2e.json

Runs the command of BENCHMARK.json once per (seed, workload), seeds in the
outer loop so the workloads interleave, and reports for every metric the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median next to the metric's bound.  The JSON written
with ``--out`` also records the machine, the seeds, each run's export
digest and its failure accounting.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(argv)} printed nothing: {done.stderr[-2000:]}")
    details = next((json.loads(x[8:]) for x in lines if x.startswith("details ")), {})
    return {"exit": done.returncode, "result": json.loads(lines[-1]), "details": details}


def summarise(values: list[float], bound) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"values": values, "median": median, "bound": bound}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(median) if median else None,
        "bound": bound,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10, help="number of seeds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    seeds = list(range(1, args.seeds + 1))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            r = run_once(spec["command"], w, seed, spec["run_seconds"], args.trace)
            runs[w].append(r)
            res = r["result"]
            print(f"seed {seed} {w}: exit {r['exit']} correct {res['correct']} "
                  f"attempted {res['attempted']} failed {res['failed']}", file=sys.stderr)

    report = {
        "machine": runs[workloads[0]][0]["details"].get("machine"),
        "run_seconds": spec["run_seconds"],
        "trace": args.trace,
        "seeds": seeds,
        "workloads": {},
    }
    ok = True
    for w in workloads:
        metrics: dict[str, list[float]] = {}
        for r in runs[w]:
            for name, m in r["result"]["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
            ok = ok and r["exit"] == 0 and r["result"]["correct"]
        summary = {name: summarise(v, bounds.get(name)) for name, v in metrics.items()
                   if len(v) == len(seeds)}
        report["workloads"][w] = {
            "metrics": summary,
            "runs": [
                {"seed": seed, "exit": r["exit"], "correct": r["result"]["correct"],
                 "attempted": r["result"]["attempted"], "failed": r["result"]["failed"],
                 **{k: r["details"].get(k) for k in (
                     "export_sha256", "repeat_op_identical", "failures_by_type",
                     "first_error", "completed_ops", "traced_ops")}}
                for seed, r in zip(seeds, runs[w])
            ],
        }
        for name, s in summary.items():
            flag = ""
            if s["bound"] is not None and s.get("spread") is not None:
                flag = "ok" if s["spread"] < s["bound"] / 3 else (
                    "WIDE" if s["spread"] <= s["bound"] else "OVER BOUND")
            spread = "n/a" if s.get("spread") is None else f"{s['spread']:.4f}"
            print(f"{w:<20} {name:<28} median {s['median']:<14.6g} spread {spread:<8} "
                  f"bound {s['bound']} {flag}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
