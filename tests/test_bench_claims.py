"""Every committed ``BENCH_*.json`` parses, and a claimed gain names a
metric and a workload the benchmark declares.

A file with a ``claim`` must also say what it compared against and where
it ran: ``parent_commit``, ``machine`` and its ``runs``.  Only
``BENCHMARK.json`` is read for the declared names.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(path.name for path in ROOT.glob("BENCH_*.json"))


@pytest.fixture(scope="module")
def declared():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {metric["name"] for metric in benchmark["end_to_end"]},
        {workload["name"] for workload in benchmark["workloads"]},
    )


def test_there_are_bench_files():
    assert BENCH_FILES


@pytest.mark.parametrize("name", BENCH_FILES)
def test_a_bench_file_is_well_formed(name, declared):
    record = json.loads((ROOT / name).read_text())
    claim = record.get("claim")
    if claim is None:
        return
    metrics, workloads = declared
    assert claim["metric"] in metrics
    assert claim["workload"] in workloads
    for key in ("parent_commit", "machine", "runs"):
        assert key in record, key
