"""Smoke runs of the experiment scripts with small arguments."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["scripts/oracle_crosscheck.py", "--profiles", "20", "--rng-seed", "1"],
    ["scripts/pd_equilibrium_scan.py", "--seeds", "4", "--rng-seed", "1"],
    ["scripts/code_lines.py"],
])
def test_script_runs(argv):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


_CODE_LINES_FIXTURE = '''"""Module docstring,
over two lines."""

# A comment-only line.
import math  # a trailing comment


class Point:
    """Class docstring."""

    x: float

    def norm(self):
        """Function docstring,

        over three lines."""
        text = """a multi-line
string that is code"""
        return math.hypot(self.x, len(text))
'''


def test_code_lines_counts_only_lines_that_carry_code(tmp_path):
    # import, class, x, def, the two lines of text, return.
    fixture = tmp_path / "fixture.py"
    fixture.write_text(_CODE_LINES_FIXTURE, encoding="utf-8")
    proc = subprocess.run([sys.executable, "scripts/code_lines.py", str(fixture)],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"     7  {fixture}\n     7  total\n"


def _bench_run(path, seed, items_per_s, failed=0):
    """A saved `bench/run.py --workload all` output with one workload."""
    metrics = {name: {"value": 1.0, "unit": "s"} for name in ("setup_s", "call_p50_s", "call_tail_s")}
    metrics["items_per_s"] = {"value": items_per_s, "unit": "1/s"}
    metrics["peak_rss_mb"] = {"value": 40.0, "unit": "MB"}
    result = {"correct": not failed, "attempted": 100, "failed": failed, "metrics": metrics}
    path.write_text(
        f'environment {{"nproc": 2, "python": "3.11", "workload_seed": {seed}}}\n'
        "workload sweep: 3000 items per call, 100 items attempted, 0 failed\n"
        f"  items_per_s = {items_per_s} 1/s\n{json.dumps(result)}\n",
        encoding="utf-8",
    )
    return str(path)


def test_bench_trajectory_summarizes_pairs(tmp_path):
    parent = [_bench_run(tmp_path / f"p{s}.txt", s, v) for s, v in ((1, 100.0), (2, 110.0), (3, 120.0))]
    change = [_bench_run(tmp_path / f"c{s}.txt", s, v, f) for s, v, f in ((1, 200.0, 0), (2, 90.0, 1), (3, 210.0, 0))]
    out = tmp_path / "BENCH.json"
    proc = subprocess.run([sys.executable, "scripts/bench_trajectory.py", "--out", str(out),
                           "--parent", *parent, "--change", *change],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(out.read_text(encoding="utf-8"))
    assert summary["seeds"] == [1, 2, 3]
    sweep = summary["workloads"]["sweep"]
    assert sweep["failed"] == {"parent": 0, "change": 1}
    items = sweep["items_per_s"]
    assert items["parent"] == {"q1": 105.0, "median": 110.0, "q3": 115.0}
    assert items["change"]["median"] == 200.0
    assert items["change_wins"] == 2
    assert items["pairs"] == [[100.0, 200.0], [110.0, 90.0], [120.0, 210.0]]
    assert sweep["setup_s"]["change_wins"] == 0  # ties count for neither side


def test_bench_trajectory_rejects_pairs_of_different_seeds(tmp_path):
    parent = [_bench_run(tmp_path / f"p{s}.txt", s, 1.0) for s in (1, 2)]
    change = [_bench_run(tmp_path / f"c{s}.txt", s, 1.0) for s in (1, 3)]
    proc = subprocess.run([sys.executable, "scripts/bench_trajectory.py", "--out", str(tmp_path / "B.json"),
                           "--parent", *parent, "--change", *change],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "another seed" in proc.stderr
