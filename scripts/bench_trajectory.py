"""Summarize paired benchmark runs into one BENCH_<n>.json trajectory file.

Each input file is the saved stdout of one run of

    python3 bench/run.py --workload all --seed <n> --seconds 20 --trace 0

on the parent commit (--parent) or on the change (--change).  The i-th
parent file and the i-th change file form a pair and must come from the
same workload seed.  For every workload and every end-to-end metric listed
in BENCHMARK.json the output holds each side's median and quartiles, every
pair's two values, and how many pairs the change won (ties count for
neither side).  It also records the seeds, each side's failed items, and
the environment line of each side's first run.

Usage:

    python scripts/bench_trajectory.py --out BENCH_7.json \\
        --parent runs/parent_*.txt --change runs/change_*.txt

Quartiles are statistics.quantiles(values, n=4, method="inclusive").
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_run(path: Path) -> tuple[dict, dict[str, dict]]:
    """The environment of a run and, per workload, its result object."""
    environment: dict | None = None
    results: dict[str, dict] = {}
    workload = None
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("environment "):
            environment = environment or json.loads(line[len("environment "):])
        elif line.startswith("workload "):
            workload = line[len("workload "):].split(":", 1)[0]
        elif line.startswith("{") and workload is not None:
            results[workload] = json.loads(line)
            workload = None
    if environment is None or not results:
        raise ValueError(f"{path}: no benchmark run found")
    return environment, results


def _spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(parent_files: list[Path], change_files: list[Path], metrics: list[dict]) -> dict:
    if len(parent_files) != len(change_files) or len(parent_files) < 2:
        raise ValueError("need at least two pairs, and as many parent runs as change runs")
    parent_runs = [parse_run(p) for p in parent_files]
    change_runs = [parse_run(p) for p in change_files]
    seeds = []
    for (p_env, _), (c_env, _), path in zip(parent_runs, change_runs, change_files):
        if p_env["workload_seed"] != c_env["workload_seed"]:
            raise ValueError(f"{path}: paired with a parent run of another seed")
        seeds.append(c_env["workload_seed"])
    workloads: dict[str, dict] = {}
    for name in change_runs[0][1]:
        entry: dict = {"failed": {
            "parent": sum(r[name]["failed"] for _, r in parent_runs),
            "change": sum(r[name]["failed"] for _, r in change_runs),
        }}
        for metric in metrics:
            key, lower_is_better = metric["name"], metric["better"] == "lower"
            pairs = [[p[name]["metrics"][key]["value"], c[name]["metrics"][key]["value"]]
                     for (_, p), (_, c) in zip(parent_runs, change_runs)]
            wins = sum(1 for p, c in pairs if (c < p if lower_is_better else c > p))
            entry[key] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": _spread([p for p, _ in pairs]),
                "change": _spread([c for _, c in pairs]),
                "change_wins": wins,
                "pairs": pairs,
            }
        workloads[name] = entry
    return {
        "protocol": "alternating parent/change pairs of "
                    "`python3 bench/run.py --workload all --seed <n> --seconds 20 --trace 0`",
        "seeds": seeds,
        "environment": {"parent": parent_runs[0][0], "change": change_runs[0][0]},
        "workloads": workloads,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", nargs="+", type=Path, required=True, help="parent run outputs")
    parser.add_argument("--change", nargs="+", type=Path, required=True, help="change run outputs, same order")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json file to write")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    try:
        summary = summarize(args.parent, args.change, metrics)
    except (OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
