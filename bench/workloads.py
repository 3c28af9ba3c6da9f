"""Seeded inputs and output checks for the four benchmark workloads.

Nothing here imports ghzgames.  The checks recompute probabilities and
payoffs from the closed form written out in the ghz module docstring,

    Pr(m, l, k) = (1/8) [1 + ml a3 b3 + mk a3 c3 + lk b3 c3 + mlk D],
    D = a1 b1 c1 - a1 b2 c2 - a2 b1 c2 - a2 b2 c1,

so a wrong answer from the package cannot also fix the reference it is
compared with.  Every check returns the number of failed items; an item is
one sweep record, one search seed or one cross-checked profile.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from collections import Counter
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
#: The canonical three-player dilemma (alpha, beta, delta, epsilon, theta, omega).
GAME_FILE = BENCH_DIR / "pd_game.json"
DILEMMA = (7.0, 9.0, 3.0, 0.0, 5.0, 1.0)
#: gamma1 = 12 > 0 and gamma2 = 20: best responses run to the two z poles.
POLES_GAME = (6.0, -4.0, -7.0, 4.0, -1.0, 6.0)

WORKLOADS = ("sweep", "search-continuum", "search-isolated", "crosscheck")
CLI_WORKLOADS = ("sweep", "search-continuum")

#: Items per top-level call: sweep steps, search seeds, cross-checked
#: profiles.  A crosscheck call is a batch of profiles, each taken through
#: the per-profile path in turn: single profiles take under a millisecond,
#: and the tail of ~30 000 such calls per run measured timer and scheduler
#: jitter, not the package.
SIZES = {"sweep": 3000, "search-continuum": 1024, "search-isolated": 2048, "crosscheck": 128}
#: The same workloads at the sizes the self-test uses.
SMALL_SIZES = {"sweep": 40, "search-continuum": 24, "search-isolated": 48, "crosscheck": 8}

#: Outcome sign triples (m, l, k) in the package's canonical row order.
SIGNS = np.array(
    [(1, 1, 1), (-1, 1, 1), (1, -1, 1), (1, 1, -1),
     (1, -1, -1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1)],
    dtype=float,
)
LABELS = tuple("".join("+" if s > 0 else "-" for s in row) for row in SIGNS)

PROB_TOL = 1e-12
PAYOFF_REL_TOL = 1e-9
#: Fixed points are converged to 1e-10 rad per sweep, so the continuum
#: equations hold to well below this.
SURFACE_TOL = 1e-8
GRID_GAIN_TOL = 1e-9
GRID_POINTS = 128


def rng_for(workload: str, seed: int) -> random.Random:
    """The input generator of one workload; equal seeds give equal inputs."""
    return random.Random(f"{workload}:{seed}")


def random_direction(rng: random.Random, min_abs_z: float = 0.0) -> tuple[float, float, float]:
    """A uniform unit vector, redrawn until |z| >= min_abs_z."""
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.hypot(*v)
        if norm > 1e-6 and abs(v[2]) >= min_abs_z * norm:
            return (v[0] / norm, v[1] / norm, v[2] / norm)


def rng_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _vector_arg(flag: str, v) -> str:
    # "--b=-0.5,..." keeps argparse from reading a leading minus as a flag.
    return f"{flag}={','.join(repr(float(x)) for x in v)}"


def sweep_argv(b, c, steps: int) -> list[str]:
    return ["sweep", str(GAME_FILE), "--rotate", "A", "--plane", "yz",
            "--steps", str(steps), _vector_arg("--b", b), _vector_arg("--c", c),
            "--format", "csv"]


def continuum_argv(seed: int, seeds: int) -> list[str]:
    return ["ne", str(GAME_FILE), "find", "--seeds", str(seeds),
            "--rng-seed", str(seed), "--format", "json", "--deterministic"]


# ---------------------------------------------------------------------------
# independent reference


def reference_probs(a, b, c) -> np.ndarray:
    """Arrays of directions (..., 3) -> outcome probabilities (..., 8)."""
    a, b, c = (np.asarray(x, dtype=float) for x in (a, b, c))
    a1, a2, a3 = np.moveaxis(a, -1, 0)
    b1, b2, b3 = np.moveaxis(b, -1, 0)
    c1, c2, c3 = np.moveaxis(c, -1, 0)
    d = a1 * b1 * c1 - a1 * b2 * c2 - a2 * b1 * c2 - a2 * b2 * c1
    m, l, k = SIGNS.T
    return 0.125 * (
        1.0
        + m * l * (a3 * b3)[..., None]
        + m * k * (a3 * c3)[..., None]
        + l * k * (b3 * c3)[..., None]
        + m * l * k * d[..., None]
    )


def payoff_table(constants) -> np.ndarray:
    """(8, 3) payoffs to A, B, C per outcome row of a symmetric game.

    Nobody defecting pays alpha, everybody omega.  A lone defector gets beta
    and the two cooperators delta; a lone cooperator gets epsilon and the two
    defectors theta.
    """
    alpha, beta, delta, epsilon, theta, omega = constants
    table = np.empty((8, 3))
    for row, signs in enumerate(SIGNS):
        defectors = int((signs < 0).sum())
        for player, s in enumerate(signs):
            if defectors == 0:
                table[row, player] = alpha
            elif defectors == 3:
                table[row, player] = omega
            elif defectors == 1:
                table[row, player] = beta if s < 0 else delta
            else:
                table[row, player] = epsilon if s > 0 else theta
    return table


def fibonacci_sphere(n: int) -> np.ndarray:
    """n nearly even unit vectors, shape (n, 3)."""
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(1.0 - z * z)
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=-1)


def _payoffs_close(got: np.ndarray, want: np.ndarray) -> np.ndarray:
    return np.abs(got - want) <= PAYOFF_REL_TOL * np.maximum(1.0, np.abs(want))


def _partition_failures(clusters, non_converged, seeds: int) -> set[int]:
    """Seeds that are missing, repeated or out of range across the clusters."""
    seen = Counter(s for _, hits in clusters for s in hits)
    seen.update(non_converged)
    bad = {s for s, n in seen.items() if n > 1 or not 0 <= s < seeds}
    bad |= set(range(seeds)) - set(seen)
    return bad


# ---------------------------------------------------------------------------
# output checks


def check_sweep(text: str, b, c, steps: int) -> int:
    """Rows of `sweep --rotate A --plane yz --format csv` against the reference."""
    try:
        rows = list(csv.DictReader(io.StringIO(text)))
        angle = np.array([float(r["angle"]) for r in rows])
        probs = np.array([[float(r[f"prob_{lab}"]) for lab in LABELS] for r in rows])
        pay = np.array([[float(r[f"payoff_{p}"]) for p in "abc"] for r in rows])
    except (KeyError, ValueError, TypeError):
        return steps
    if len(rows) != steps:
        return steps
    want_angle = np.array([2.0 * math.pi * k / steps for k in range(steps)])
    a = np.stack([np.zeros(steps), np.cos(want_angle), np.sin(want_angle)], axis=-1)
    ref = reference_probs(a, np.broadcast_to(b, a.shape), np.broadcast_to(c, a.shape))
    ref_pay = ref @ payoff_table(DILEMMA)
    ok = (
        (np.abs(angle - want_angle) <= PROB_TOL)
        & (np.abs(probs - ref) <= PROB_TOL).all(axis=1)
        & (np.abs(probs.sum(axis=1) - 1.0) <= PROB_TOL)
        & _payoffs_close(pay, ref_pay).all(axis=1)
    )
    return int(steps - ok.sum())


def _off_continuum(profiles: np.ndarray) -> np.ndarray:
    """Fixed points (E, 3, 3) off the dilemma's continuum of equilibria.

    On it the in-plane azimuths sum to 0 mod 2 pi, i.e. the product of the
    three complex numbers a1 + i a2 is real and nonnegative (this form stays
    defined when a direction sits on a pole), and the third components solve
    za + zb + zc + za zb zc = 0.
    """
    q = np.prod(profiles[:, :, 0] + 1j * profiles[:, :, 1], axis=1)
    z = profiles[:, :, 2]
    surface = z.sum(axis=1) + z.prod(axis=1)
    return (np.abs(q.imag) > SURFACE_TOL) | (q.real < -SURFACE_TOL) | (np.abs(surface) > SURFACE_TOL)


def _beaten_by_grid(profiles: np.ndarray, constants) -> np.ndarray:
    """Fixed points (E, 3, 3) where some player gains by moving to a grid direction."""
    table = payoff_table(constants)
    grid = fibonacci_sphere(GRID_POINTS)
    base = reference_probs(profiles[:, 0], profiles[:, 1], profiles[:, 2]) @ table
    beaten = np.zeros(len(profiles), dtype=bool)
    for player in range(3):
        devs = [np.broadcast_to(profiles[:, None, q], (len(profiles), GRID_POINTS, 3))
                for q in range(3)]
        devs[player] = np.broadcast_to(grid, devs[player].shape)
        gain = reference_probs(*devs) @ table[:, player] - base[:, None, player]
        beaten |= (gain > GRID_GAIN_TOL).any(axis=1)
    return beaten


def check_continuum(text: str, seeds: int, repeat_of: str | None = None) -> int:
    """JSON report of `ne <dilemma> find`; repeat_of is the output of an
    earlier call with the same rng seed, which must match byte for byte."""
    if repeat_of is not None and text != repeat_of:
        return seeds
    try:
        results = json.loads(text)["results"]
        clusters = [([eq["profile"][p] for p in "abc"], list(eq["seeds"]))
                    for eq in results["equilibria"]]
        non_converged = list(results["non_converged_seeds"])
        profiles = np.array([p for p, _ in clusters], dtype=float).reshape(-1, 3, 3)
    except (KeyError, ValueError, TypeError):
        return seeds
    bad = _partition_failures(clusters, non_converged, seeds)
    if len(profiles):
        wrong = _off_continuum(profiles) | _beaten_by_grid(profiles, DILEMMA)
        for (_, hits), w in zip(clusters, wrong):
            if w:
                bad.update(hits)
    return min(len(bad), seeds)


def check_isolated(clusters, non_converged, seeds: int) -> int:
    """find_ne on POLES_GAME: exactly the clusters at all +z and all -z.

    clusters is a list of (3x3 profile rows, seeds) pairs.
    """
    bad = _partition_failures(clusters, non_converged, seeds)
    found = []
    for profile, _ in clusters:
        p = np.asarray(profile, dtype=float)
        for pole in (1.0, -1.0):
            if np.abs(p - [[0.0, 0.0, pole]] * 3).max() <= PROB_TOL:
                found.append(pole)
    if len(clusters) != 2 or sorted(found) != [-1.0, 1.0]:
        return seeds
    return min(len(bad), seeds)


def check_crosscheck(batch: dict) -> int:
    """Cross-checked profiles, as arrays with one leading row per profile:
    vectors (N,3,3), closed and oracle (N,8) in LABELS order, marginals
    (N,3,2), residuals (N,8), consistent, solution_present (N,), violated
    (N,) counts, payoffs (N,3), residual_tol (scalar)."""
    v = batch["vectors"]
    ref = reference_probs(v[:, 0], v[:, 1], v[:, 2])
    closed, orc = batch["closed"], batch["oracle"]
    over = batch["residuals"] > batch["residual_tol"]
    ok = (
        (np.abs(closed - orc) <= PROB_TOL).all(axis=1)
        & (np.abs(closed - ref) <= PROB_TOL).all(axis=1)
        & (np.abs(batch["marginals"] - 0.5) <= PROB_TOL).all(axis=(1, 2))
        & (np.abs(np.sort(batch["residuals"], axis=1)
                  - np.sort(np.abs(ref - 0.125), axis=1)) <= PROB_TOL).all(axis=1)
        & (batch["consistent"] == ~over.any(axis=1))
        & (batch["solution_present"] == batch["consistent"])
        & (batch["violated"] == over.sum(axis=1))
        & _payoffs_close(batch["payoffs"], ref @ payoff_table(DILEMMA)).all(axis=1)
    )
    return int(len(v) - ok.sum())
