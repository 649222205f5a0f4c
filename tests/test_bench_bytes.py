"""Byte-for-byte pins of the benchmark's exports.

For seed 1, ops 0..31 of each workload in ``cellbench/workloads.py`` are
run, checked and their exports hashed in op order, as
``cellbench/run.py --seed 1`` does for its ``export_sha256``.  A kernel
change that alters a byte of these traces, VCDs or metrics reports must
be deliberate: update the digest here and say why in CHANGES.md.  Ops
0..599 of seed 1 of ``edg_fault_campaign`` must also pass the workload's
check, which fails an op whose syndrome never heals.
"""

import contextlib
import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "cellbench" / "workloads.py"
DIGEST_OPS = 32  # as in cellbench/run.py

DIGESTS = {
    "ccs_cruise": "6157a67af4c3c3440c1dff03f12c9074515425667afa3cc6bbc3d02b45d39d0a",
    "oracle_netlists": "1d3842374c3762d5de03d299fd6de4de1a56f60b6aa2af81337a8da37731355b",
    "edg_fault_campaign": "0a82872cfac6c729df1d901db486a16ebcba26d0c15f45ec4a61f6288b6ebff8",
}


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("cellbench_workloads", WORKLOADS_PY)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def untraced(_name):
    return contextlib.nullcontext()


def test_every_workload_is_pinned(workloads):
    assert set(DIGESTS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_bench_export_bytes(workloads, name):
    w = workloads.WORKLOADS[name](1)
    digest = hashlib.sha256()
    for i in range(DIGEST_OPS):
        inp = w.inputs(i)
        out = w.op(inp, untraced)
        w.check(inp, out)
        for text in w.exports(out):
            digest.update(text.encode())
    assert digest.hexdigest() == DIGESTS[name]


def test_seed_1_fault_campaign_ops_pass_their_check(workloads):
    w = workloads.WORKLOADS["edg_fault_campaign"](1)
    outcomes = set()
    for i in range(600):
        inp = w.inputs(i)
        out = w.op(inp, untraced)
        w.check(inp, out)
        outcomes.add(out.campaign)
    assert outcomes == {"healed", "masked", "fail_safe"}
