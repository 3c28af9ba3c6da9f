"""Payoff evaluation and distribution analysis for the three-player game.

Covers the classical mixed-strategy expectation, the quantum expectation over
direction profiles, the test of whether a quantum distribution can be
reproduced by independent mixed strategies, and the enumeration of
classical pure-strategy equilibria.  Every payoff here is one
expectation of the table rows under some weighting of the eight outcomes
(``expected_payoffs``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

from . import ghz
from .core import (
    EXACT_TOL,
    OUTCOMES,
    PLAYERS,
    DirectionProfile,
    GeneralGame,
    MixedProfile,
    OutcomeTriple,
    PayoffTriple,
)

#: Residual tolerance for the eight-equation factorizability check; looser
#: than EXACT_TOL to absorb rounding accumulated across the equations.
FACTOR_RESIDUAL_TOL = 1e-9

#: The eight matching equations E1..E8, each pairing one quantum outcome
#: probability with the corresponding product of mixed-strategy weights.
FACTOR_EQUATIONS = (
    ("E1", OutcomeTriple(+1, +1, +1)),
    ("E2", OutcomeTriple(+1, -1, +1)),
    ("E3", OutcomeTriple(+1, +1, -1)),
    ("E4", OutcomeTriple(+1, -1, -1)),
    ("E5", OutcomeTriple(-1, +1, +1)),
    ("E6", OutcomeTriple(-1, -1, +1)),
    ("E7", OutcomeTriple(-1, +1, -1)),
    ("E8", OutcomeTriple(-1, -1, -1)),
)


def product_weight(outcome: OutcomeTriple, mixed: MixedProfile) -> float:
    """Probability of one outcome under independent per-player mixing."""
    wa = mixed.x if outcome.m == 1 else 1.0 - mixed.x
    wb = mixed.y if outcome.l == 1 else 1.0 - mixed.y
    wc = mixed.z if outcome.k == 1 else 1.0 - mixed.z
    return wa * wb * wc


def expected_payoffs(table: GeneralGame, weights: Sequence[float]) -> PayoffTriple:
    """Each player's payoff averaged over the table rows, weighted by eight
    ``weights`` in OUTCOMES order (for a GHZ distribution, its ``values``).

    Each player's payoff is the ``fsum`` of weight times that player's column
    of the table (``GeneralGame.columns``).
    """
    return PayoffTriple(*(math.fsum(map(operator.mul, weights, column)) for column in table.columns))


def classical_payoffs(game: GeneralGame, mixed: MixedProfile) -> PayoffTriple:
    """Expected payoffs when the outcome distribution factorizes over players."""
    return expected_payoffs(game, [product_weight(o, mixed) for o in OUTCOMES])


def quantum_payoffs(game: GeneralGame, profile: DirectionProfile) -> PayoffTriple:
    """Expected payoffs under the GHZ joint distribution for the profile."""
    return expected_payoffs(game, ghz.joint_distribution(profile).values)


@dataclass(frozen=True)
class FactorizationReport:
    """Whether a profile's quantum distribution factorizes over the players.

    ``residuals`` holds all eight back-substitution residuals keyed E1..E8;
    ``violated_equations`` repeats the (identifier, residual) pairs above
    FACTOR_RESIDUAL_TOL.  ``solution`` is present exactly when consistent.
    """

    consistent: bool
    solution: MixedProfile | None
    residuals: Mapping[str, float]
    violated_equations: tuple[tuple[str, float], ...]


def factorize(profile: DirectionProfile) -> FactorizationReport:
    """Test whether independent mixed strategies reproduce the quantum distribution.

    Summing the matching equations pairwise cancels every direction term and
    forces the unique candidate (1/2, 1/2, 1/2): adding the four equations
    that share m = +1 gives x = 1/2 exactly, and likewise for y and z.
    Consistency is then a back-substitution of the candidate into all eight
    equations, whose right-hand sides are all 1/8.
    """
    dist = ghz.joint_distribution(profile)
    candidate = MixedProfile(0.5, 0.5, 0.5)
    residuals = {eq: abs(dist[o] - 0.125) for eq, o in FACTOR_EQUATIONS}
    violated = tuple(
        (eq, r) for eq, r in residuals.items() if r > FACTOR_RESIDUAL_TOL
    )
    consistent = not violated
    return FactorizationReport(
        consistent=consistent,
        solution=candidate if consistent else None,
        residuals=residuals,
        violated_equations=violated,
    )


@dataclass(frozen=True)
class PureEquilibrium:
    """A pure-strategy profile no player can profitably leave; strict if every
    unilateral deviation strictly loses."""

    outcome: OutcomeTriple
    payoffs: PayoffTriple
    strict: bool


def classical_pure_ne(game: GeneralGame) -> list[PureEquilibrium]:
    """Enumerate the pure-strategy equilibria of the classical game.

    All eight profiles are checked against all unilateral pure deviations;
    ties (within EXACT_TOL) make an equilibrium weak rather than strict.
    """
    found = []
    for outcome in OUTCOMES:
        base = game.payoff(outcome)
        gains = []
        for index, player in enumerate(PLAYERS):
            signs = list(outcome.signs())
            signs[index] = -signs[index]
            deviated = game.payoff(OutcomeTriple(*signs))
            gains.append(deviated.for_player(player) - base.for_player(player))
        if max(gains) > EXACT_TOL:
            continue
        strict = all(g < -EXACT_TOL for g in gains)
        found.append(PureEquilibrium(outcome, base, strict))
    return found
