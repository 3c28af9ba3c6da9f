"""Self-test of the benchmark at tiny sizes; about a minute on two cores.

    python3 bench/selftest.py

Checks that
  * every workload emits exactly the metrics BENCHMARK.json names, with
    their units, untraced and traced, and passes its own output checks;
  * deliberately corrupted outputs are counted as failures: one perturbed
    probability, one dropped seed, a changed byte in a repeated report, a
    missing pole cluster, one perturbed oracle entry;
  * traced call counts repeat exactly for a seed, and calls_per_item is the
    same on a second seed.
Exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402
import worker  # noqa: E402

SECONDS = 0.5
FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        FAILURES.append(what)


def check_metrics_emitted() -> None:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in wl.WORKLOADS:
            result = run.run_workload(workload, 1, SECONDS, trace, small=True)
            printed = io.StringIO()
            with contextlib.redirect_stdout(printed):
                run.report(result)
            last = json.loads(printed.getvalue().splitlines()[-1])
            units = {name: m["unit"] for name, m in last["metrics"].items()}
            values = [m["value"] for m in last["metrics"].values()]
            expect(set(last) == {"correct", "attempted", "failed", "metrics"}
                   and units == wanted and last["correct"] and last["attempted"] >= 1
                   and all(math.isfinite(v) for v in values)
                   and (trace or all(v > 0 for v in values)),
                   f"{workload} --trace {int(trace)} emits every {key} metric and passes")


def check_corruptions_caught() -> None:
    sizes = wl.SMALL_SIZES
    rng = wl.rng_for("selftest", 0)

    steps = sizes["sweep"]
    b, c = wl.random_direction(rng, 0.1), wl.random_direction(rng, 0.1)
    _, text = worker._cli(wl.sweep_argv(b, c, steps))
    lines = text.splitlines()
    header = lines[0].split(",")
    row = lines[3].split(",")
    column = header.index("prob_+-+")
    row[column] = repr(float(row[column]) + 1e-9)
    corrupted = "\n".join(lines[:3] + [",".join(row)] + lines[4:]) + "\n"
    expect(wl.check_sweep(text, b, c, steps) == 0, "sweep: real output passes")
    expect(wl.check_sweep(corrupted, b, c, steps) == 1, "sweep: one perturbed probability fails one row")

    seeds = sizes["search-continuum"]
    _, text = worker._cli(wl.continuum_argv(7, seeds))
    report = json.loads(text)
    report["results"]["equilibria"][0]["seeds"].pop()
    dropped = json.dumps(report, indent=2, sort_keys=True) + "\n"
    expect(wl.check_continuum(text, seeds, repeat_of=text) == 0, "search-continuum: real output passes")
    expect(wl.check_continuum(dropped, seeds) == 1, "search-continuum: one dropped seed fails it")
    expect(wl.check_continuum(text.replace("\n", " \n", 1), seeds, repeat_of=text) == seeds,
           "search-continuum: a repeat that differs by one byte fails every seed")

    seeds = sizes["search-isolated"]
    result = worker.nash.find_ne(worker.SymmetricGame(*wl.POLES_GAME), seeds, 7)
    clusters, non_converged = worker._search_outputs(result)
    expect(wl.check_isolated(clusters, non_converged, seeds) == 0, "search-isolated: real output passes")
    expect(wl.check_isolated(clusters[:1], non_converged + clusters[1][1], seeds) == seeds,
           "search-isolated: a missing pole cluster fails every seed")

    crosscheck = worker.Crosscheck()
    for _ in range(sizes["crosscheck"]):
        profile = worker._profile([wl.random_direction(rng) for _ in range(3)])
        crosscheck.record(profile, crosscheck.call(profile))
    crosscheck.rows["oracle"][2][5] += 1e-9
    expect(crosscheck.check() == 1, "crosscheck: one perturbed oracle probability fails one profile")


def check_counts_repeat() -> None:
    for workload in wl.WORKLOADS:
        first, again, other = (
            run.run_workload(workload, seed, SECONDS, True, small=True)["metrics"]
            for seed in (1, 1, 2)
        )
        counts = [name for name in first if name.endswith(".calls")]
        per_item = [name for name in first if name.endswith(".calls_per_item")]
        expect(all(first[n] == again[n] for n in counts),
               f"{workload}: F.calls repeat exactly on the same seed")
        expect(all(first[n] == other[n] for n in per_item),
               f"{workload}: calls_per_item is the same on a second seed")


def main() -> int:
    check_metrics_emitted()
    check_corruptions_caught()
    check_counts_repeat()
    print(f"{len(FAILURES)} check(s) failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
