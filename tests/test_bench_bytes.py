"""Byte-for-byte pins of the benchmark's exports.

For seed 1, ops 0..31 of each workload in ``cellbench/workloads.py`` are
run, checked and their exports hashed in op order, as
``cellbench/run.py --seed 1`` does for its ``export_sha256``.  A kernel
change that alters a byte of these traces, VCDs or metrics reports must
be deliberate: update the digest here and say why in CHANGES.md.
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
    "ccs_cruise": "2824f193af2048a03880462dabe39555f945be9a758f6c84e88d4c09315dc279",
    "oracle_netlists": "b9ecd2c74e6c2f39f54f57f36c8b627b2cb3d7ab0a52fa0828bb2c78860cfe8d",
    "edg_fault_campaign": "097e713125a117ecc48e93f42fd21c64542fe6f989d73cd487a80f582f7836d6",
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
