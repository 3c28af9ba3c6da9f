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

joint_distribution evaluates all eight outcomes at once, in OUTCOMES order.
The same formula written for one outcome at a time is not part of the
package; it lives in the tests as the bit-for-bit reference for that pass.

All functions here are pure and thread-safe.  Probabilities are returned at
full floating precision; formatting is left to callers.
"""

from __future__ import annotations

import math

from .core import (
    OUTCOMES,
    DirectionProfile,
    JointDistribution,
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


#: The sign triples (m, l, k) of OUTCOMES, in order.
_SIGNS = tuple(o.signs() for o in OUTCOMES)


def joint_distribution(profile: DirectionProfile) -> JointDistribution:
    """All eight outcome probabilities for one direction profile, in OUTCOMES order.

    D and the three pair products are computed once.  Each value is
    bit-identical to the formula above evaluated for one outcome at a time
    (the per-outcome reference lives in the tests): the terms are added in
    the same order, and a +-1 factor changes no rounding.
    """
    a, b, c = profile.a, profile.b, profile.c
    ab, ac, bc = a.a3 * b.a3, a.a3 * c.a3, b.a3 * c.a3
    d = delta(profile)
    return JointDistribution([
        0.125 * (1.0 + m * l * ab + m * k * ac + l * k * bc + m * l * k * d)
        for m, l, k in _SIGNS
    ])


def marginal_single(profile: DirectionProfile, player: str) -> tuple[float, float]:
    """One player's (+1, -1) outcome probabilities.

    The GHZ single-party marginal is maximally mixed, so both entries come out
    1/2 for every profile; they are still computed by honest summation.
    """
    index = player_index(player)
    values = joint_distribution(profile).values
    plus = math.fsum(p for p, signs in zip(values, _SIGNS) if signs[index] == 1)
    minus = math.fsum(p for p, signs in zip(values, _SIGNS) if signs[index] == -1)
    return (plus, minus)

