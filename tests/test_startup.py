"""Running a bundled application imports none of the reference modules."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RUN = """
import sys
import cellfab
cellfab.run(cellfab.load_scenario("edg_faultfree"))
print(sorted(m for m in sys.modules if m.startswith("cellfab.apps")))
"""


def test_run_leaves_apps_edg_and_ccs_unimported():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", RUN], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['cellfab.apps']"
