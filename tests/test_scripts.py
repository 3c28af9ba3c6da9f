"""Smoke runs of the experiment scripts with small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["scripts/oracle_crosscheck.py", "--profiles", "20", "--rng-seed", "1"],
    ["scripts/pd_equilibrium_scan.py", "--seeds", "4", "--rng-seed", "1"],
])
def test_script_runs(argv):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
