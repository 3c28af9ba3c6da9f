"""Benchmark of ghzgames: four workloads, end-to-end or traced per layer.

Run from the repository root:

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md for why each exists):
  sweep             CLI `sweep` over the canonical dilemma, CSV output
  search-continuum  CLI `ne ... find --seeds 1024`, JSON output
  search-isolated   library nash.find_ne on a game with two pole equilibria
  crosscheck        library closed form, oracle, factorize, marginals, payoffs

Each workload is a closed loop with one client: one process and one call at
a time.  CLI workloads start `python -m ghzgames.cli` with PYTHONPATH=src
per call; library workloads run in worker processes (bench/worker.py).
With --trace 0 the run prints the end-to-end metrics, with call times
scaled to a reference machine speed (see bench/speed.py); with
--trace 1 it runs the workload in-process under the tracer and prints
per-layer metrics.  The last line of stdout is one JSON object; the exit
code is 1 when an output check failed and 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import speed
import workloads as wl
from tracer import ENTRY_NAMES, LAYERS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Set-up is measured this many times per run, spread over the run, and
#: reported as the median; library workloads split their window over this
#: many fresh workers.
SETUP_REPEATS = 7
#: No single call may take longer than this.
CALL_TIMEOUT_S = 60.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "call_p50_s": "s",
                    "call_tail_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to a failed output check)."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """Environment of every child: the working tree on PYTHONPATH and BLAS
    threads capped at nproc."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for var in BLAS_VARS:
        try:
            env[var] = str(max(1, min(int(env[var]), nproc())))
        except (KeyError, ValueError):
            env[var] = str(nproc())
    return env


def environment(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "ghzgames").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    env = child_env()
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workload_seed": seed,
        "blas_threads": {var: env[var] for var in BLAS_VARS},
    }


class Stopwatch:
    """Set-ups and calls of one run.  Each call is timed between two runs of
    a speed reference (see speed.py); set-ups are kept as measured."""

    def __init__(self, reference, reference_s: float, call_includes_setup: bool) -> None:
        self.reference, self.reference_s = reference, reference_s
        self.call_includes_setup = call_includes_setup
        self.references = [reference()]
        self.setups: list[float] = []
        self.raw_calls: list[float] = []

    def setup(self, measured: float) -> None:
        self.setups.append(measured)

    def call(self, measured: float) -> None:
        self.raw_calls.append(measured)
        self.references.append(self.reference())

    def busy(self) -> float:
        """Measured time spent in calls so far; it bounds the run."""
        return sum(self.raw_calls)

    def scaled_calls(self) -> list[float]:
        """Call times at the reference speed.  A CLI call starts with the
        same set-up the set-up probes time, and like them that part is not
        scaled: the run's median set-up is kept and the rest is scaled."""
        setup = statistics.median(self.setups) if self.call_includes_setup else 0.0
        scaled = []
        for measured, before, after in zip(self.raw_calls, self.references, self.references[1:]):
            kept = min(setup, measured)
            scaled.append(kept + (measured - kept) * 2.0 * self.reference_s / (before + after))
        return scaled

    def speed_factor(self) -> float:
        """How much slower than its reference time the reference ran."""
        return statistics.median(self.references) / self.reference_s


def tail(durations: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it: the
    11th-largest call, i.e. the (n - 10)/n quantile.  Below 21 calls that
    would fall under the median, so the median is used and fewer than ten
    samples lie beyond.  Returns (value, percentile, samples beyond)."""
    ordered = sorted(durations)
    n = len(ordered)
    index = max(n - 11, n // 2)
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


# ---------------------------------------------------------------------------
# end-to-end runs


def _run_child(argv: list[str]) -> tuple[float, int, bytes]:
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          timeout=CALL_TIMEOUT_S)
    return time.perf_counter() - start, proc.returncode, proc.stdout


def _reference_process() -> float:
    elapsed, code, _ = _run_child([sys.executable, str(BENCH_DIR / "speed.py")])
    if code:
        raise BenchError("the speed reference process failed")
    return elapsed


def _cli_calls(workload: str, seed: int, seconds: float, size: int, watch: Stopwatch) -> int:
    """Runs CLI calls for `seconds` of call time; returns the failed items."""
    rng = wl.rng_for(workload, seed)
    failed = 0
    first_output: bytes | None = None
    while watch.busy() < seconds or len(watch.setups) < SETUP_REPEATS:
        # Set-up probes are spread over the window, between timed calls.
        if watch.busy() >= seconds * len(watch.setups) / SETUP_REPEATS:
            elapsed, code, _ = _run_child([sys.executable, "-c", "import ghzgames.cli"])
            if code:
                raise BenchError("`import ghzgames.cli` failed in a fresh interpreter")
            watch.setup(elapsed)
            continue
        if workload == "sweep":
            b, c = wl.random_direction(rng, 0.1), wl.random_direction(rng, 0.1)
            argv = wl.sweep_argv(b, c, size)
        elif len(watch.raw_calls) % 2 == 0:  # each rng seed runs twice: output must repeat
            argv, first_output = wl.continuum_argv(wl.rng_seed(rng), size), None
        elapsed, code, out = _run_child([sys.executable, "-m", "ghzgames.cli", *argv])
        watch.call(elapsed)
        if code:
            failed += size
        elif workload == "sweep":
            failed += wl.check_sweep(out.decode(), b, c, size)
        else:
            repeat_of = None if first_output is None else first_output.decode()
            failed += wl.check_continuum(out.decode(), size, repeat_of)
            first_output = out
    return failed


def _worker_argv(workload: str, seed: int, trace: bool, part: int, small: bool,
                 seconds: float = 0.0) -> list[str]:
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--part", str(part), "--seconds", repr(seconds),
            "--trace", str(int(trace))]
    return argv + (["--small"] if small else [])


def _start_worker(argv: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker; returns it and the seconds until it was ready."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE)
    try:
        ready = _readline(proc, CALL_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        if ready != b"ready\n":
            raise BenchError(f"worker did not start: {' '.join(argv[1:])}")
    except BaseException:
        _stop(proc)
        raise
    return proc, elapsed


def _readline(proc: subprocess.Popen, timeout: float) -> bytes:
    if not select.select([proc.stdout], [], [], timeout)[0]:
        raise BenchError(f"no answer from the worker within {timeout} s")
    return proc.stdout.readline()


def _stop(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def _library_calls(workload: str, seed: int, seconds: float, small: bool,
                   watch: Stopwatch) -> tuple[int, int]:
    """Runs library calls in SETUP_REPEATS workers in turn, for `seconds` of
    call time in all; returns (attempted, failed) items."""
    attempted = failed = 0
    for part in range(SETUP_REPEATS):
        proc, elapsed = _start_worker(_worker_argv(workload, seed, False, part, small))
        try:
            watch.setup(elapsed)
            while watch.busy() < seconds * (part + 1) / SETUP_REPEATS:
                proc.stdin.write(b"go\n")
                proc.stdin.flush()
                answer = _readline(proc, CALL_TIMEOUT_S)
                if not answer:
                    raise BenchError("the worker exited during a call")
                result = json.loads(answer)
                watch.call(result["elapsed"])
                attempted += result["items"]
                failed += result["failed"]
            proc.stdin.close()
            proc.wait(timeout=CALL_TIMEOUT_S)
        finally:
            _stop(proc)
    return attempted, failed


def _traced(workload: str, seed: int, seconds: float, small: bool) -> dict:
    proc, _ = _start_worker(_worker_argv(workload, seed, True, 0, small, seconds))
    try:
        answer = _readline(proc, seconds + CALL_TIMEOUT_S)
        proc.wait(timeout=CALL_TIMEOUT_S)
    finally:
        _stop(proc)
    if not answer:
        raise BenchError("the traced worker exited without a result")
    return json.loads(answer)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 small: bool = False) -> dict:
    """Run one workload; returns the result object and the details behind it."""
    if not (SRC / "ghzgames" / "__init__.py").is_file():
        raise BenchError(f"no ghzgames package under {SRC}")
    size = (wl.SMALL_SIZES if small else wl.SIZES)[workload]
    details: dict = {"workload": workload, "environment": environment(seed),
                     "items_per_call": size}
    if trace:
        result = _traced(workload, seed, seconds, small)
        attempted, failed = result["items"], result["failed"]
        metrics, units = result["metrics"], PER_LAYER_UNITS
    else:
        if workload in wl.CLI_WORKLOADS:
            watch = Stopwatch(_reference_process, speed.REFERENCE_PROCESS_S, True)
            failed = _cli_calls(workload, seed, seconds, size, watch)
            attempted = size * len(watch.raw_calls)
        else:
            watch = Stopwatch(speed.kernel_seconds, speed.REFERENCE_S, False)
            attempted, failed = _library_calls(workload, seed, seconds, small, watch)
        units = END_TO_END_UNITS
        calls = watch.scaled_calls()
        metrics = _end_to_end(watch.setups, calls, attempted)
        _, tail_pct, beyond = tail(calls)
        details.update(calls=len(calls), call_tail_percentile=tail_pct,
                       call_tail_samples_beyond=beyond, speed_factor=watch.speed_factor(),
                       raw=_end_to_end(watch.setups, watch.raw_calls, attempted))
    details["failed_ratio"] = failed / attempted
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "details": details,
    }


def _end_to_end(setups: list[float], calls: list[float], items: int) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": items / sum(calls),
        "call_p50_s": statistics.median(calls),
        "call_tail_s": tail(calls)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def _per_layer_units() -> dict[str, str]:
    units = {}
    for name in ENTRY_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_share"] = "ratio"
    units.update({
        "ghz.joint_distribution.calls_per_item": "calls/item",
        "core.JointDistribution.calls_per_item": "calls/item",
        "nash.best_response.calls_per_seed": "calls/seed",
        "nash.clusters_per_seed": "clusters/seed",
        "nash.converged_ratio": "ratio",
        "trace.overhead_ratio": "ratio",
    })
    return units


PER_LAYER_UNITS = _per_layer_units()


def report(result: dict) -> None:
    """Print the run: environment, every metric with its unit, then the
    result object as the last line."""
    details = result["details"]
    print("environment " + json.dumps(details["environment"], sort_keys=True))
    print(f"workload {details['workload']}: {details['items_per_call']} items per call, "
          f"{result['attempted']} items attempted, {result['failed']} failed, "
          f"failed_ratio = {details['failed_ratio']:.6g} ratio")
    raw = details.get("raw", {})
    for name, metric in result["metrics"].items():
        line = f"  {name} = {metric['value']:.6g} {metric['unit']}"
        if name in ("items_per_s", "call_p50_s", "call_tail_s"):
            line += f"  (as measured {raw[name]:.6g})"
        print(line)
    if "calls" in details:
        print(f"  call_tail_s is p{details['call_tail_percentile']:.4g} of {details['calls']} "
              f"calls ({details['call_tail_samples_beyond']} beyond it)")
    if raw:
        print(f"  call times scaled to the reference speed; the reference ran at "
              f"{details['speed_factor']:.3g}x its reference time")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*wl.WORKLOADS, "all"), required=True,
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # One process per workload, so each reports the peak RSS of its own children.
        return max(
            subprocess.run([sys.executable, __file__, "--workload", workload,
                            "--seed", str(args.seed), "--seconds", repr(args.seconds),
                            "--trace", str(args.trace)]).returncode
            for workload in wl.WORKLOADS
        )
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    report(result)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
