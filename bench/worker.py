"""In-process half of the benchmark: library workloads and traced runs.

run.py starts this file in a fresh interpreter with PYTHONPATH=src.  It
prints "ready" once its imports and inputs are in place, then:

  --trace 0  (search-isolated, crosscheck) makes one timed top-level
             library call on fresh inputs per "go" line read from stdin and
             answers each with one JSON line.
  --trace 1  (any workload) repeats one call on fixed inputs, untraced and
             traced in turn, until --seconds pass; CLI workloads go through
             cli.main in this process, and ends with one JSON line.  Call
             counts are per call and must repeat exactly; times are medians
             over calls.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import time

import numpy as np

import workloads as wl
from ghzgames import game, ghz, nash, oracle
from ghzgames.core import OUTCOMES, Direction, DirectionProfile, SymmetricGame, symmetric_to_general


def _profile(vectors) -> DirectionProfile:
    return DirectionProfile(*(Direction(*v) for v in vectors))


def _rows(profile: DirectionProfile) -> list[list[float]]:
    return [[d.a1, d.a2, d.a3] for d in (profile.a, profile.b, profile.c)]


def _by_label(dist) -> list[float]:
    values = {o.label(): dist[o] for o in OUTCOMES}
    return [values[label] for label in wl.LABELS]


class Crosscheck:
    """The per-profile path behind the oracle cross-check, with its outputs
    kept for one vectorized check per batch."""

    def __init__(self) -> None:
        self.table = symmetric_to_general(SymmetricGame(*wl.DILEMMA))
        self.rows: dict[str, list] = {k: [] for k in (
            "vectors", "closed", "oracle", "marginals", "residuals",
            "consistent", "solution_present", "violated", "payoffs")}

    def call(self, profile: DirectionProfile):
        closed = ghz.joint_distribution(profile)
        reference = oracle.joint_distribution_oracle(profile)
        report = game.factorize(profile)
        marginals = [ghz.marginal_single(profile, player) for player in "ABC"]
        payoffs = game.quantum_payoffs(self.table, profile)
        return closed, reference, report, marginals, payoffs

    def record(self, profile: DirectionProfile, out) -> None:
        closed, reference, report, marginals, payoffs = out
        r = self.rows
        r["vectors"].append(_rows(profile))
        r["closed"].append(_by_label(closed))
        r["oracle"].append(_by_label(reference))
        r["marginals"].append(marginals)
        r["residuals"].append(list(report.residuals.values()))
        r["consistent"].append(report.consistent)
        r["solution_present"].append(report.solution is not None)
        r["violated"].append(len(report.violated_equations))
        r["payoffs"].append([payoffs.pi_a, payoffs.pi_b, payoffs.pi_c])

    def check(self) -> int:
        batch = {k: np.array(v, dtype=bool if k in ("consistent", "solution_present") else float)
                 for k, v in self.rows.items()}
        batch["residual_tol"] = game.FACTOR_RESIDUAL_TOL
        for v in self.rows.values():
            v.clear()
        return wl.check_crosscheck(batch)


def _search_outputs(result) -> tuple[list, list[int]]:
    clusters = [(_rows(eq.profile), list(eq.seeds)) for eq in result.equilibria]
    return clusters, list(result.non_converged)


def _cli(argv: list[str]) -> tuple[int, str]:
    from ghzgames import cli

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


def make_call(workload: str, size: int, rng, fixed: bool):
    """One top-level call of the workload, on inputs drawn from rng: once
    when fixed, else anew for every call.  Inputs are drawn and outputs
    checked outside the timed part.  call() -> (seconds in the package,
    failed items, clusters, converged seeds); the last two are None for
    workloads that do not search.  CLI workloads run in-process and only
    with fixed inputs."""
    clock = time.perf_counter

    if workload == "sweep":
        b, c = wl.random_direction(rng, 0.1), wl.random_direction(rng, 0.1)
        argv = wl.sweep_argv(b, c, size)

        def call():
            start = clock()
            code, text = _cli(argv)
            elapsed = clock() - start
            return elapsed, (size if code else wl.check_sweep(text, b, c, size)), None, None

    elif workload == "search-continuum":
        argv = wl.continuum_argv(wl.rng_seed(rng), size)
        first: list[str] = []

        def call():
            start = clock()
            code, text = _cli(argv)
            elapsed = clock() - start
            if code:
                return elapsed, size, None, None
            failed = wl.check_continuum(text, size, first[0] if first else None)
            first[:] = first or [text]
            results = json.loads(text)["results"]
            converged = size - len(results["non_converged_seeds"])
            return elapsed, failed, len(results["equilibria"]), converged

    elif workload == "search-isolated":
        poles = SymmetricGame(*wl.POLES_GAME)
        seeds = [wl.rng_seed(rng)]

        def call():
            if not fixed:
                seeds[0] = wl.rng_seed(rng)
            start = clock()
            result = nash.find_ne(poles, size, seeds[0])
            elapsed = clock() - start
            clusters, non_converged = _search_outputs(result)
            failed = wl.check_isolated(clusters, non_converged, size)
            return elapsed, failed, len(clusters), size - len(non_converged)

    else:
        crosscheck = Crosscheck()

        def draw():
            return [_profile([wl.random_direction(rng) for _ in range(3)]) for _ in range(size)]

        profiles = draw()

        def call():
            if not fixed:
                profiles[:] = draw()
            elapsed = 0.0
            for profile in profiles:
                start = clock()
                out = crosscheck.call(profile)
                elapsed += clock() - start
                crosscheck.record(profile, out)
            return elapsed, crosscheck.check(), None, None

    return call


def run_calls(workload: str, seed: int, part: int, sizes: dict) -> None:
    """--trace 0: one call on fresh inputs per "go" line on stdin, answered
    with one JSON line; the parent times its reference kernel in between."""
    size = sizes[workload]
    call = make_call(workload, size, wl.rng_for(workload, f"{seed}:{part}"), fixed=False)
    print("ready", flush=True)
    for line in sys.stdin:
        if line.strip() != "go":
            break
        elapsed, failed, _, _ = call()
        print(json.dumps({"elapsed": elapsed, "items": size, "failed": failed}), flush=True)


def run_trace(workload: str, seed: int, seconds: float, sizes: dict) -> dict:
    """--trace 1: per-layer metrics of one call on fixed inputs."""
    from tracer import ENTRY_NAMES, LAYERS, Tracer

    size = sizes[workload]
    call = make_call(workload, size, wl.rng_for(workload, f"{seed}:trace"), fixed=True)
    print("ready", flush=True)

    # A first untraced call warms caches and lazy imports; it is checked but
    # not timed.  Traced and untraced calls then alternate which goes first,
    # so a drift in machine speed does not land on one side.
    _, failed, _, _ = call()
    calls = 1
    untraced, traced, layer_self, entry_self = [], [], [], []
    counts = None
    started = time.perf_counter()
    while not traced or time.perf_counter() - started < seconds:
        for traced_now in (len(traced) % 2 == 1, len(traced) % 2 == 0):
            if traced_now:
                with Tracer() as tracer:
                    elapsed, bad, clusters, converged = call()
                traced.append(elapsed)
            else:
                elapsed, bad, _, _ = call()
                untraced.append(elapsed)
            calls += 1
            failed += bad
        call_counts = {name: tracer.calls[name] for name in ENTRY_NAMES}
        if counts is None:
            counts = call_counts
        elif call_counts != counts:
            failed += size  # the same inputs must make the same calls
        entry_self.append({name: tracer.self_s[name] for name in ENTRY_NAMES})
        total = sum(entry_self[-1].values())
        layer_self.append({
            layer: sum(v for k, v in entry_self[-1].items() if k.startswith(layer + ".")) / total
            for layer in LAYERS
        })

    metrics: dict[str, float] = {}
    for name in ENTRY_NAMES:
        metrics[f"{name}.calls"] = counts[name]
        metrics[f"{name}.self_s"] = statistics.median(c[name] for c in entry_self)
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = statistics.median(c[layer] for c in layer_self)
    search = clusters is not None
    metrics["ghz.joint_distribution.calls_per_item"] = counts["ghz.joint_distribution"] / size
    metrics["core.JointDistribution.calls_per_item"] = counts["core.JointDistribution"] / size
    metrics["nash.best_response.calls_per_seed"] = (
        counts["nash.best_response"] / size if search else 0.0)
    metrics["nash.clusters_per_seed"] = clusters / size if search else 0.0
    metrics["nash.converged_ratio"] = converged / size if search else 0.0
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return {"metrics": metrics, "items": size * calls, "failed": failed}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0, help="traced run length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="self-test sizes")
    args = parser.parse_args()
    sizes = wl.SMALL_SIZES if args.small else wl.SIZES
    if args.trace:
        print(json.dumps(run_trace(args.workload, args.seed, args.seconds, sizes)), flush=True)
    else:
        run_calls(args.workload, args.seed, args.part, sizes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
