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
    "edg_faultfree.csv": "1517e17063d1cca12051ce8b619fa0b470152a53548a9922e1dc3820c2fd3bb2",
    "edg_faultfree.vcd": "e3c68f00d692f9ba0630729c2a8c3d23beccb5a56fe8563e577195a09f291296",
    "edg_faultfree.metrics.txt": "76a5ca9cd269034c268be8a26252d593016031ba6113985aaf317c24eae38172",
    "edg_transient3.csv": "2dab4e9e7c8ece65f7ca5d2efcd0cb3cfa97de3f9d85b33dda79b44c33ad82cf",
    "edg_transient3.vcd": "e3c68f00d692f9ba0630729c2a8c3d23beccb5a56fe8563e577195a09f291296",
    "edg_transient3.metrics.txt": "100d60f30301a05d85212b1e1f0c815f1b661aa2a6a10d18ced3dfb5602f3c49",
    "edg_permanent_bt.csv": "fc95c677d6744a92a216fede9a1320e157022336d355fa99281bdf0255eeee24",
    "edg_permanent_bt.vcd": "6c1ed52e24678bd8ea00de930fbc38c2b8fc4634f669c209ca922a544f6a8adc",
    "edg_permanent_bt.metrics.txt": "5cde5d89d6590e19921d6f0f3a272e850152c86bd5e41e33e932732a859b3141",
    "edg_multifault4.csv": "0646c5c399987e0d423eae2321686b0532369f91feae6f83999a84e2a9686620",
    "edg_multifault4.vcd": "63b535340666bbeb4d6d649eb156af163cf0314b70d0f7ea29234ca743b8d8ff",
    "edg_multifault4.metrics.txt": "3fece84a98d2c087f3c16834e64e4a76b800871223dae95735598cc9cffa8130",
    "ccs_step.csv": "d9f59c0b2e7d4b783e08147b32cbcd67482e42b0044145335c6b0719f67af2a3",
    "ccs_step.vcd": "79770d140aa8c4ea2192ac1589f4fef54bdc8ac628cae667d3f9af3e85815ab4",
    "ccs_step.metrics.txt": "e71560c9185d690f4576309754507c84e8dd9f708553a357c6e8210cd0e11106",
    "ccs_fc16_permanent.csv": "f136195adaa78fd06c591db523d2f1a4a1c116595d34f1cef614b4948dec4fad",
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
