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
    "edg_faultfree.csv": "dca265f4955812a9a45231666a55a3f25bc988d3d1f8770a6320b86cb8d85a38",
    "edg_faultfree.vcd": "e3c68f00d692f9ba0630729c2a8c3d23beccb5a56fe8563e577195a09f291296",
    "edg_faultfree.metrics.txt": "76a5ca9cd269034c268be8a26252d593016031ba6113985aaf317c24eae38172",
    "edg_transient3.csv": "a484ff3e27da83a80ba8232b1b4ff3777ecdbee7cf5340766b7679a215f919f1",
    "edg_transient3.vcd": "e3c68f00d692f9ba0630729c2a8c3d23beccb5a56fe8563e577195a09f291296",
    "edg_transient3.metrics.txt": "100d60f30301a05d85212b1e1f0c815f1b661aa2a6a10d18ced3dfb5602f3c49",
    "edg_permanent_bt.csv": "b97b80fb1a189035cff588a88140516c421f6aae61ead5ed2c5cbbfe282950dd",
    "edg_permanent_bt.vcd": "6c1ed52e24678bd8ea00de930fbc38c2b8fc4634f669c209ca922a544f6a8adc",
    "edg_permanent_bt.metrics.txt": "5cde5d89d6590e19921d6f0f3a272e850152c86bd5e41e33e932732a859b3141",
    "edg_multifault4.csv": "60a4b4cecac9ee1a48c42dd9b40094121fec8e4c36f059e44dd136508fa24729",
    "edg_multifault4.vcd": "63b535340666bbeb4d6d649eb156af163cf0314b70d0f7ea29234ca743b8d8ff",
    "edg_multifault4.metrics.txt": "3fece84a98d2c087f3c16834e64e4a76b800871223dae95735598cc9cffa8130",
    "ccs_step.csv": "8d5026d9833921be681d4409117a3167c9d99509f0a574e26f5b66e57434445e",
    "ccs_step.vcd": "79770d140aa8c4ea2192ac1589f4fef54bdc8ac628cae667d3f9af3e85815ab4",
    "ccs_step.metrics.txt": "e71560c9185d690f4576309754507c84e8dd9f708553a357c6e8210cd0e11106",
    "ccs_fc16_permanent.csv": "88d7a90ea64921c393f0d23bf6e76b445a076fb6e54d84b517d1e121fea64efb",
    "ccs_fc16_permanent.vcd": "1663556620ddc2d6e378997d0fc4bf034efe0c5a45eff8f5562d2c4c94ae9f9c",
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
