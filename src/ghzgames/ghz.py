"""Closed-form outcome statistics for direction measurements on the GHZ state.

For measurement directions a, b, c (one unit vector per player) and outcomes
m, l, k in {+1, -1}, the joint probability is

    Pr(m, l, k) = (1/8) * [1 + m*l*a3*b3 + m*k*a3*c3 + l*k*b3*c3 + m*l*k*D]

with the three-way correlation term

    D = a1*b1*c1 - a1*b2*c2 - a2*b1*c2 - a2*b2*c1.

D is the contraction of a rank-3 correlation tensor with a, b and c.  Only
four of its 27 entries are nonzero, which is why the reduced product form
above is used for evaluation; the tensor itself lives in the tests, which
confirm the reduction.  An independent brute-force three-qubit evaluation of
the same distribution lives in the oracle module.

All functions here are pure and thread-safe.  Probabilities are returned at
full floating precision; formatting is left to callers.
"""

from __future__ import annotations

import math

from .core import (
    OUTCOMES,
    PAIRS,
    PLAYERS,
    DirectionProfile,
    JointDistribution,
    OutcomeTriple,
    player_index,
)


def delta(profile: DirectionProfile) -> float:
    """Three-way correlation term; permutation-symmetric in (a, b, c), |D| <= 1."""
    a, b, c = profile.a, profile.b, profile.c
    return (
        a.a1 * b.a1 * c.a1
        - a.a1 * b.a2 * c.a2
        - a.a2 * b.a1 * c.a2
        - a.a2 * b.a2 * c.a1
    )


def kz_probability(outcome: OutcomeTriple, profile: DirectionProfile) -> float:
    """Probability of one outcome triple under the closed form (unclamped)."""
    a, b, c = profile.a, profile.b, profile.c
    m, l, k = outcome.signs()
    return 0.125 * (
        1.0
        + m * l * a.a3 * b.a3
        + m * k * a.a3 * c.a3
        + l * k * b.a3 * c.a3
        + m * l * k * delta(profile)
    )


def joint_distribution(profile: DirectionProfile) -> JointDistribution:
    """All eight outcome probabilities for one direction profile."""
    return JointDistribution({o: kz_probability(o, profile) for o in OUTCOMES})


def marginal_single(profile: DirectionProfile, player: str) -> tuple[float, float]:
    """One player's (+1, -1) outcome probabilities.

    The GHZ single-party marginal is maximally mixed, so both entries come out
    1/2 for every profile; they are still computed by honest summation.
    """
    index = player_index(player)
    dist = joint_distribution(profile)
    plus = math.fsum(dist[o] for o in OUTCOMES if o.signs()[index] == 1)
    minus = math.fsum(dist[o] for o in OUTCOMES if o.signs()[index] == -1)
    return (plus, minus)


def marginal_pair(profile: DirectionProfile, pair: str) -> dict[tuple[int, int], float]:
    """Joint outcome probabilities for a pair of players, summed over the third.

    For pair AB the closed form is Pr(m, l) = (1 + m*l*a3*b3) / 4, and
    analogously with the other third-component products for AC and BC.
    """
    if pair not in PAIRS:
        raise ValueError(f"pair must be one of {PAIRS}, got {pair!r}")
    first, second = PLAYERS.index(pair[0]), PLAYERS.index(pair[1])
    dist = joint_distribution(profile)
    out: dict[tuple[int, int], float] = {}
    for s1 in (1, -1):
        for s2 in (1, -1):
            out[(s1, s2)] = math.fsum(
                dist[o]
                for o in OUTCOMES
                if o.signs()[first] == s1 and o.signs()[second] == s2
            )
    return out
