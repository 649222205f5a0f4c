"""Byte-for-byte pins of the bundled scenarios' exports.

Every CSV, VCD and metrics report of the six bundled scenarios is
hashed and compared with its recorded SHA-256.  A change to any of
these bytes must be deliberate: update the digest here and say why in
CHANGES.md.
"""

import hashlib

import pytest

from cellfab.cli import main
from cellfab.scenarios import BUNDLED_SCENARIOS

DIGESTS = {
    "edg_faultfree.csv": "68f104a26f396e2fad55625a997b455b4ec6a2dbd1e69491d56b46db1c4afe81",
    "edg_faultfree.vcd": "e3c68f00d692f9ba0630729c2a8c3d23beccb5a56fe8563e577195a09f291296",
    "edg_faultfree.metrics.txt": "76a5ca9cd269034c268be8a26252d593016031ba6113985aaf317c24eae38172",
    "edg_transient3.csv": "f90d20c77a987b3c7c1ae95c1d64d3b88bdff7c7d0522d96eb174c3b606d16cc",
    "edg_transient3.vcd": "e3c68f00d692f9ba0630729c2a8c3d23beccb5a56fe8563e577195a09f291296",
    "edg_transient3.metrics.txt": "100d60f30301a05d85212b1e1f0c815f1b661aa2a6a10d18ced3dfb5602f3c49",
    "edg_permanent_bt.csv": "5507409f49a0329abdd6e36c6f07f5bace83d870ea8b629f26812a4c64dcfe06",
    "edg_permanent_bt.vcd": "6c1ed52e24678bd8ea00de930fbc38c2b8fc4634f669c209ca922a544f6a8adc",
    "edg_permanent_bt.metrics.txt": "5cde5d89d6590e19921d6f0f3a272e850152c86bd5e41e33e932732a859b3141",
    "edg_multifault4.csv": "e55a9ee7e89deccc8890220417a4ad86b0965cdc0be758715151817a0f393227",
    "edg_multifault4.vcd": "63b535340666bbeb4d6d649eb156af163cf0314b70d0f7ea29234ca743b8d8ff",
    "edg_multifault4.metrics.txt": "3fece84a98d2c087f3c16834e64e4a76b800871223dae95735598cc9cffa8130",
    "ccs_step.csv": "1759fb025302af52af0b1fdecb5baada5246239a58191745bc4de41b8b0b66fa",
    "ccs_step.vcd": "ac2f8660a8ff9457ad7c140b6b9d1a7c8a9d2dcb0e264a97d2416a1206e50e9b",
    "ccs_step.metrics.txt": "e71560c9185d690f4576309754507c84e8dd9f708553a357c6e8210cd0e11106",
    "ccs_fc16_permanent.csv": "285826bae10d4877034df49e1f6ecf4592407ae6b4286428f07f3fb23bc06dba",
    "ccs_fc16_permanent.vcd": "db0ccfbdf7b62d9fefad7db2aad380a5b82aec798d70a6c6a67dea4426794108",
    "ccs_fc16_permanent.metrics.txt": "26cead7b3113c34122d88cddca05838a8c8460b529edbd220f16155722dacc8b",
}


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    out = tmp_path_factory.mktemp("bundled")
    assert main(["run", *BUNDLED_SCENARIOS, "--out", str(out)]) == 0
    return out


def test_every_bundled_export_is_pinned():
    expected = {f"{n}.{ext}" for n in BUNDLED_SCENARIOS for ext in ("csv", "vcd", "metrics.txt")}
    assert set(DIGESTS) == expected


@pytest.mark.parametrize("filename", sorted(DIGESTS))
def test_bundled_export_bytes(exported, filename):
    digest = hashlib.sha256((exported / filename).read_bytes()).hexdigest()
    assert digest == DIGESTS[filename]
