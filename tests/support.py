"""Shared generators and independent evaluation helpers for the test suite."""

from __future__ import annotations

import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from ghzgames import ghz
from ghzgames.core import (
    OUTCOMES,
    Direction,
    DirectionProfile,
    GeneralGame,
    OutcomeTriple,
    PayoffTriple,
    SymmetricGame,
    random_direction,
    require_inplane,
    symmetric_to_general,
)
from ghzgames.game import expected_payoffs

PD = SymmetricGame(alpha=7, beta=9, delta=3, epsilon=0, theta=5, omega=1)
#: Six constants with gamma2 = 0: fully degenerate in-plane regime.
DEGENERATE = SymmetricGame(alpha=3, beta=1, delta=1, epsilon=0, theta=0, omega=0)
#: The eight records of PD as the entries of a general game file.
PD_GENERAL_ENTRIES = [
    {"strategies": list(strategies), "payoffs": list(payoffs)}
    for strategies, payoffs in (
        (("S1", "S1", "S1"), (7, 7, 7)),
        (("S2", "S1", "S1"), (9, 3, 3)),
        (("S1", "S2", "S1"), (3, 9, 3)),
        (("S1", "S1", "S2"), (3, 3, 9)),
        (("S1", "S2", "S2"), (0, 5, 5)),
        (("S2", "S1", "S2"), (5, 0, 5)),
        (("S2", "S2", "S1"), (5, 5, 0)),
        (("S2", "S2", "S2"), (1, 1, 1)),
    )
]


def checkout_env() -> dict[str, str]:
    """The environment for a fresh interpreter, with this checkout's src first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH", "")])))


def random_profile(rng: np.random.Generator) -> DirectionProfile:
    return DirectionProfile(random_direction(rng), random_direction(rng), random_direction(rng))


def random_inplane_direction(rng: np.random.Generator) -> Direction:
    angle = rng.uniform(0.0, 2.0 * math.pi)
    return Direction(math.cos(angle), math.sin(angle), 0.0)


def random_inplane_profile(rng: np.random.Generator) -> DirectionProfile:
    return DirectionProfile(
        random_inplane_direction(rng),
        random_inplane_direction(rng),
        random_inplane_direction(rng),
    )


def zero_correlation_inplane_profile(rng: np.random.Generator) -> DirectionProfile:
    """In-plane profile whose three-way correlation term vanishes.

    With b and c in the plane, picking a = (b1*c2 + b2*c1, b1*c1 - b2*c2, 0)
    makes the correlation term cancel exactly (and a is unit because the two
    components are the real and imaginary parts of a product of phases).
    """
    b = random_inplane_direction(rng)
    c = random_inplane_direction(rng)
    a = Direction(b.a1 * c.a2 + b.a2 * c.a1, b.a1 * c.a1 - b.a2 * c.a2, 0.0)
    return DirectionProfile(a, b, c)


def random_symmetric_game(rng: np.random.Generator, scale: float = 10.0) -> SymmetricGame:
    return SymmetricGame(*rng.uniform(-scale, scale, size=6))


def fibonacci_sphere(n: int) -> np.ndarray:
    """n nearly uniform unit vectors, shape (n, 3)."""
    i = np.arange(n, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


def kz_probability(outcome: OutcomeTriple, profile: DirectionProfile) -> float:
    """Probability of one outcome triple under the closed form (unclamped).

    The reference for ghz.joint_distribution, which computes all eight in one
    pass and must agree with this, after its clamp, bit for bit.
    """
    a, b, c = profile.a, profile.b, profile.c
    m, l, k = outcome.signs()
    return 0.125 * (
        1.0
        + m * l * a.a3 * b.a3
        + m * k * a.a3 * c.a3
        + l * k * b.a3 * c.a3
        + m * l * k * ghz.delta(profile)
    )


def quantum_payoffs_inplane(game: SymmetricGame, profile: DirectionProfile) -> PayoffTriple:
    """The paper's quantum payoffs for directions confined to the X-Y plane.

    With all third components zero the eight outcome weights collapse to
    (1 + m*l*k*D)/8, so the whole expectation is driven by the single
    correlation term D.  Agrees with game.quantum_payoffs on the same inputs.
    """
    require_inplane(profile)
    d = ghz.delta(profile)
    weights = [0.125 * (1.0 + o.m * o.l * o.k * d) for o in OUTCOMES]
    return expected_payoffs(symmetric_to_general(game), weights)


def _player_split(outcome, player: str) -> tuple[int, int, int]:
    """(deviator sign, first opponent sign, second opponent sign), opponents in player order."""
    m, l, k = outcome.signs()
    if player == "A":
        return m, l, k
    if player == "B":
        return l, m, k
    return k, m, l


def deviation_payoffs(
    general: GeneralGame,
    profile: DirectionProfile,
    player: str,
    directions: np.ndarray,
) -> np.ndarray:
    """Vectorized payoffs of `player` when they deviate to each row of `directions`.

    Written straight from the outcome-probability formula, independently of
    the closed-form gradient used by the library.
    """
    if player == "A":
        u, v = profile.b, profile.c
    elif player == "B":
        u, v = profile.a, profile.c
    else:
        u, v = profile.a, profile.b
    d1, d2, d3 = directions[:, 0], directions[:, 1], directions[:, 2]
    inner = d1 * (u.a1 * v.a1 - u.a2 * v.a2) - d2 * (u.a1 * v.a2 + u.a2 * v.a1)
    total = np.zeros(len(directions))
    for outcome in OUTCOMES:
        sx, su, sv = _player_split(outcome, player)
        prob = 0.125 * (
            1.0
            + su * sv * u.a3 * v.a3
            + sx * su * d3 * u.a3
            + sx * sv * d3 * v.a3
            + sx * su * sv * inner
        )
        total += prob * general.payoff(outcome).for_player(player)
    return total


def exact_verdict(game: SymmetricGame, profile) -> str:
    """verify_ne's verdict, decided in rational arithmetic without tolerances.

    ``profile`` is three rational unit vectors (a, b, c), as triples of
    numbers that Fraction takes exactly.  The game's constants are read as
    the exact values of their floats.  A player with gradient g, playing d,
    is indifferent when g = 0 and aligned when g x d = 0 and g.d > 0; any
    other player has a deviation that gains, and then the verdict is not_ne.
    """
    a, b, d, e, t, w = map(Fraction, game.constants())
    g1, g2 = a - b - e + w, a - 2 * d - b + e + 2 * t - w
    dirs = [tuple(map(Fraction, x)) for x in profile]
    verdict = "strict"
    for own, i, j in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        (u1, u2, u3), (v1, v2, v3), (x1, x2, x3) = dirs[i], dirs[j], dirs[own]
        g = (g2 * (u1 * v1 - u2 * v2), -g2 * (u1 * v2 + u2 * v1), g1 * (u3 + v3))
        if not any(g):
            verdict = "weak"
            continue
        cross = (g[1] * x3 - g[2] * x2, g[2] * x1 - g[0] * x3, g[0] * x2 - g[1] * x1)
        if any(cross) or g[0] * x1 + g[1] * x2 + g[2] * x3 <= 0:
            return "not_ne"
    return verdict


# hypothesis strategies -------------------------------------------------------

finite_payoffs = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6
)

symmetric_games = st.builds(
    SymmetricGame,
    finite_payoffs, finite_payoffs, finite_payoffs,
    finite_payoffs, finite_payoffs, finite_payoffs,
)

_components = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)

unit_directions = (
    st.tuples(_components, _components, _components)
    .filter(lambda v: math.hypot(*v) > 1e-3)
    .map(lambda v: Direction(*(x / math.hypot(*v) for x in v)))
)

direction_profiles = st.builds(DirectionProfile, unit_directions, unit_directions, unit_directions)
