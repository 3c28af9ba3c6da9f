"""Equilibrium analysis for direction strategies in the symmetric quantum game.

Each player's expected payoff is affine in their own direction components
once the other two directions are fixed: eight times the payoff equals a
profile-independent constant plus the dot product of the player's direction
with a gradient vector built from two game invariants (``gammas``) and
bilinear combinations of the opponents' components (``_payoff_gradient``).
That structure makes everything here exact:

* unilateral payoff differences have a closed form (``payoff_diff``),
* the best response is the normalized gradient, or full indifference when
  the gradient vanishes (``best_response``),
* equilibrium verdicts are decidable from gradient alignment (``verify_ne``),
  with a three-way taxonomy: strict (every player's gradient is nonzero and
  points along their played direction), weak (no profitable deviation but
  some player is indifferent or the margin is below tolerance), and not an
  equilibrium (a deviation gains more than GAIN_TOL, returned as a witness).

``find_ne`` runs cyclic best-response dynamics from random starts.  The
seeds of a block sweep together in numpy steps, with the per-seed loop's
arithmetic term for term and math.hypot for every norm, so each fixed point
has the bits a seed would reach on its own; the last few seeds of a block,
and blocks too small to batch, run in that per-seed loop.  The
X-Y-plane constraint analysis (``case_a_constraints``, ``case_b_check``) and
the generalized three-player dilemma gate (``check_pd``) round out the module.

A caution on interpretation: verdicts are always computed from the deviation
inequalities themselves.  For the canonical dilemma payoffs this yields
unconstrained-direction equilibria (the all-x profile is strict, and
degenerate profiles such as (z, z, -z) are weak), although it is sometimes
asserted that no unconstrained equilibrium triple exists for these payoffs.
The command-line reports carry the same caution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Mapping

from .core import (
    PLAYERS,
    Direction,
    DirectionProfile,
    SymmetricGame,
    in_plane,
    player_index,
    random_directions,
    require_inplane,
)

if TYPE_CHECKING:
    import numpy as np

#: Gradient norms at or below this count as full indifference.
GRADIENT_TOL = 1e-12
#: A played direction within this angle (radians) of the gradient is aligned.
ALIGN_TOL_RAD = 1e-9
#: Deviations must gain more than this to defeat an equilibrium claim.
GAIN_TOL = 1e-12
#: A best-response sweep that moves every player less than this has converged.
#: It is compared with the chord |d - r| of each move, not the angle: below
#: 2**-26 the two are equal in floating point, and above it both exceed this.
SWEEP_MOVE_TOL = 1e-10
#: Fixed points closer than this (max angle over players) are deduplicated.
DEDUP_TOL_RAD = 1e-6
#: Best-response sweeps per seed before giving up.
MAX_SWEEPS = 10_000

STRICT = "strict"
WEAK = "weak"
NOT_NE = "not_ne"


@dataclass(frozen=True)
class GammaPair:
    """The two linear payoff combinations that drive every deviation inequality."""

    gamma1: float
    gamma2: float


def gammas(game: SymmetricGame) -> GammaPair:
    """gamma1 = alpha - beta - epsilon + omega;
    gamma2 = alpha - 2*delta - beta + epsilon + 2*theta - omega."""
    g1 = game.alpha - game.beta - game.epsilon + game.omega
    g2 = game.alpha - 2.0 * game.delta - game.beta + game.epsilon + 2.0 * game.theta - game.omega
    return GammaPair(g1, g2)


#: A direction's components (a1, a2, a3), as the search handles them.
Vec3 = tuple[float, float, float]

#: Per player, in PLAYERS order: the player's index in the profile, and the
#: indices of their two opponents in player order.
_UPDATES = ((0, 1, 2), (1, 0, 2), (2, 0, 1))


def _split(profile: DirectionProfile, player: str) -> tuple[Vec3, Vec3, Vec3]:
    """The player's own components, then the two opponents' in player order."""
    dirs = (profile.a.components(), profile.b.components(), profile.c.components())
    own, i, j = _UPDATES[player_index(player)]
    return (dirs[own], dirs[i], dirs[j])


def _payoff_gradient(gp: GammaPair, u: Vec3, v: Vec3) -> Vec3:
    """Eight times the gradient of a player's payoff in their own components,
    given the two opponents' components u and v (in player order)."""
    u1, u2, u3 = u
    v1, v2, v3 = v
    return (
        gp.gamma2 * (u1 * v1 - u2 * v2),
        -gp.gamma2 * (u1 * v2 + u2 * v1),
        gp.gamma1 * (u3 + v3),
    )


def _respond(gp: GammaPair, u: Vec3, v: Vec3) -> tuple[Vec3, float, Vec3 | None]:
    """The payoff gradient against opponents u and v, its norm, and the best
    response: the normalized gradient, or None when the norm is at most
    GRADIENT_TOL and every direction is optimal.

    A finite norm above GRADIENT_TOL normalizes to a unit vector within a few
    ulps, so the response needs no validation.  A norm that overflowed is
    passed through Direction, which rejects it with NotUnitError.
    """
    grad = _payoff_gradient(gp, u, v)
    norm = math.hypot(*grad)
    if norm <= GRADIENT_TOL:
        return grad, norm, None
    response = (grad[0] / norm, grad[1] / norm, grad[2] / norm)
    if not math.isfinite(norm):
        response = Direction(*response).components()
    return grad, norm, response


def payoff_diff(
    game: SymmetricGame,
    starred: DirectionProfile,
    deviator: str,
    alt: Direction,
) -> float:
    """Closed-form payoff loss the deviator suffers by leaving the starred profile.

    Positive means the starred direction beats the alternative; equals the
    direct difference of quantum payoffs for that player.  The payoff is
    affine in the deviator's own direction, so the loss is the payoff
    gradient dotted with the change of direction.
    """
    own, u, v = _split(starred, deviator)
    grad = _payoff_gradient(gammas(game), u, v)
    return (
        grad[0] * (own[0] - alt.a1)
        + grad[1] * (own[1] - alt.a2)
        + grad[2] * (own[2] - alt.a3)
    ) / 8.0


def best_response(
    game: SymmetricGame,
    others: tuple[Direction, Direction],
    player: str,
) -> Direction | None:
    """The payoff-maximizing direction against two fixed opponents.

    ``others`` lists the remaining players in A, B, C order.  Returns the
    normalized payoff gradient, or None when the gradient vanishes and every
    direction is optimal (full indifference).
    """
    player_index(player)
    response = _respond(gammas(game), others[0].components(), others[1].components())[2]
    return None if response is None else Direction(*response)


def _angle_between(d: Vec3, e: Vec3) -> float:
    """Angle in radians between two unit vectors; stable for tiny angles."""
    chord = math.hypot(d[0] - e[0], d[1] - e[1], d[2] - e[2])
    return 2.0 * math.asin(min(1.0, chord / 2.0))


@dataclass(frozen=True)
class DeviationWitness:
    """A profitable unilateral deviation certifying a non-equilibrium."""

    player: str
    direction: Direction
    gain: float


@dataclass(frozen=True)
class NEReport:
    """Verdict for one profile, with each player's best response.

    ``best_responses`` maps player to their payoff-maximizing direction, or
    None for full indifference.  ``witness`` is present exactly when the
    verdict is not_ne, and its gain exceeds GAIN_TOL.
    """

    verdict: str
    best_responses: Mapping[str, Direction | None]
    witness: DeviationWitness | None


def verify_ne(game: SymmetricGame, profile: DirectionProfile) -> NEReport:
    """Classify a profile as strict, weak, or not an equilibrium.

    Strict requires every player's gradient to be nonzero and aligned with
    the played direction within ALIGN_TOL_RAD.  A deviation gaining more than
    GAIN_TOL yields not_ne with the best response as witness (largest gain,
    ties broken in player order).  Everything else is weak.
    """
    gp = gammas(game)
    best: dict[str, Direction | None] = {}
    rows: list[tuple[str, Direction | None, float, bool]] = []
    for player in PLAYERS:
        own, u, v = _split(profile, player)
        grad, norm, response = _respond(gp, u, v)
        if response is None:
            best[player] = None
            rows.append((player, None, 0.0, False))
            continue
        best[player] = Direction(*response)
        gain = (norm - (grad[0] * own[0] + grad[1] * own[1] + grad[2] * own[2])) / 8.0
        if gain < 0.0:
            gain = 0.0
        rows.append((player, best[player], gain, _angle_between(own, response) <= ALIGN_TOL_RAD))
    worst = max(rows, key=lambda row: row[2])
    if worst[2] > GAIN_TOL:
        witness = DeviationWitness(worst[0], worst[1], worst[2])
        return NEReport(NOT_NE, best, witness)
    if all(response is not None and aligned for _, response, _, aligned in rows):
        return NEReport(STRICT, best, None)
    return NEReport(WEAK, best, None)


@dataclass(frozen=True)
class FoundEquilibrium:
    """A deduplicated fixed point of the best-response dynamics."""

    profile: DirectionProfile
    report: NEReport
    seeds: tuple[int, ...]


@dataclass(frozen=True)
class SearchResult:
    """Everything a search run produced; non-converged seeds are never dropped."""

    equilibria: tuple[FoundEquilibrium, ...]
    non_converged: tuple[int, ...]


def _iterate_best_responses(gp: GammaPair, dirs: list[Vec3], sweeps: int) -> list[Vec3] | None:
    """Cyclic A, B, C updates until a sweep moves every player < SWEEP_MOVE_TOL.

    ``dirs`` holds the three players' component triples and is updated in
    place; the fixed point is returned as that list.  One sweep updates the
    players in _UPDATES order, and indifferent players keep their current
    direction.  Returns None when ``sweeps`` sweeps pass without convergence.

    A move is measured by its chord ``math.hypot(d - r)``, which gives the
    same verdict as the angle _angle_between would: 2*asin(chord/2) equals
    the chord for chords below 2**-26, and is at least the chord above it,
    where both exceed SWEEP_MOVE_TOL.

    _sweep_batch runs the same sweep for many seeds at once, with the same
    bits, and hands its last seeds to this loop with the sweeps they have
    left.  Nothing here builds a Direction (only _respond does, to reject an
    overflowed norm).
    """
    for _ in range(sweeps):
        moved = 0.0
        for own, i, j in _UPDATES:
            response = _respond(gp, dirs[i], dirs[j])[2]
            if response is not None:
                d = dirs[own]
                chord = math.hypot(d[0] - response[0], d[1] - response[1], d[2] - response[2])
                if chord > moved:
                    moved = chord
                dirs[own] = response
        if moved < SWEEP_MOVE_TOL:
            return dirs
    return None


#: Seeds whose starts are drawn, and whose sweeps are batched, together.
_SEED_BLOCK = 1024
#: Once fewer seeds than this are left unconverged in a block, one numpy
#: step per sweep costs more than the per-seed loop, which takes them over.
_HANDOFF = 64


def _hypot(x, y, z):
    """math.hypot of each row of three equal-length arrays, as an array.

    numpy's own hypot rounds differently, so each row goes through
    math.hypot to keep the bits of the per-seed loop.
    """
    import numpy as np

    return np.fromiter(map(math.hypot, x.tolist(), y.tolist(), z.tolist()), float, len(x))


def _triples(row: list[float]) -> list[Vec3]:
    """A seed's nine components, A's then B's then C's, as three triples."""
    return [tuple(row[0:3]), tuple(row[3:6]), tuple(row[6:9])]


def _sweep_block(gp: GammaPair, starts: np.ndarray) -> list[list[Vec3] | None]:
    """The fixed point of each seed of a block, or None, in seed order.

    ``starts`` has one row per seed: A's, then B's, then C's start
    components.  A block of at least _HANDOFF seeds is swept by
    _sweep_batch; a smaller one, or one whose batch met a norm that is not
    finite, goes seed by seed through _iterate_best_responses from its
    starts, which raises on such a norm as it always has.
    """
    if len(starts) >= _HANDOFF:
        fixed = _sweep_batch(gp, starts)
        if fixed is not None:
            return fixed
    return [_iterate_best_responses(gp, _triples(row), MAX_SWEEPS) for row in starts.tolist()]


def _sweep_batch(gp: GammaPair, starts: np.ndarray) -> list[list[Vec3] | None] | None:
    """_sweep_block's result for a block, with its sweeps run in numpy steps;
    None if a gradient norm is not finite.

    Every unconverged seed advances one sweep per step, with the arithmetic
    of _payoff_gradient and _respond term for term and each norm taken by
    math.hypot, so every seed follows the path the per-seed loop would.
    Once fewer than _HANDOFF seeds are left they continue in
    _iterate_best_responses with the sweeps that remain of MAX_SWEEPS.
    """
    import numpy as np

    fixed: list[list[Vec3] | None] = [None] * len(starts)
    active = np.arange(len(starts))
    # cols[3 * p + k]: component k of player p, one entry per active seed.
    cols = list(starts.T.copy())
    done_sweeps = 0
    gamma1, gamma2, minus_gamma2 = gp.gamma1, gp.gamma2, -gp.gamma2
    with np.errstate(all="ignore"):
        while len(active) >= _HANDOFF and done_sweeps < MAX_SWEEPS:
            done_sweeps += 1
            converged = np.ones(len(active), dtype=bool)
            for own, i, j in _UPDATES:
                u1, u2, u3 = cols[3 * i:3 * i + 3]
                v1, v2, v3 = cols[3 * j:3 * j + 3]
                grad = (gamma2 * (u1 * v1 - u2 * v2), minus_gamma2 * (u1 * v2 + u2 * v1), gamma1 * (u3 + v3))
                norm = _hypot(*grad)
                if not np.isfinite(norm).all():
                    return None
                moves = norm > GRADIENT_TOL
                divisor = np.where(moves, norm, 1.0)
                d = cols[3 * own:3 * own + 3]
                response = [np.where(moves, g / divisor, c) for g, c in zip(grad, d)]
                converged &= _hypot(*(c - r for c, r in zip(d, response))) < SWEEP_MOVE_TOL
                cols[3 * own:3 * own + 3] = response
            if converged.any():
                rows = np.array(cols).T[converged].tolist()
                for seed, row in zip(active[converged].tolist(), rows):
                    fixed[seed] = _triples(row)
                active = active[~converged]
                cols = [c[~converged] for c in cols]
    for seed, row in zip(active.tolist(), np.array(cols).T.tolist()):
        fixed[seed] = _iterate_best_responses(gp, _triples(row), MAX_SWEEPS - done_sweeps)
    return fixed


def _fixed_points(gp: GammaPair, seeds: int, rng: np.random.Generator) -> Iterator[list[Vec3] | None]:
    """Each seed's fixed point, or None when it did not converge, in seed order.

    The starts are drawn _SEED_BLOCK seeds at a time, the next three
    random_directions rows per seed, and each block is swept by _sweep_block.
    """
    for first in range(0, seeds, _SEED_BLOCK):
        count = min(_SEED_BLOCK, seeds - first)
        starts = random_directions(rng, len(PLAYERS) * count)
        yield from _sweep_block(gp, starts.reshape(count, 3 * len(PLAYERS)))


def _profile_distance(p: list[Vec3], q: list[Vec3]) -> float:
    """The largest angle between two fixed points' directions, over players."""
    return max(map(_angle_between, p, q))


def find_ne(game: SymmetricGame, seeds: int, rng_seed: int) -> SearchResult:
    """Search for equilibria by best-response dynamics from random starts.

    Runs ``seeds`` independent starts drawn uniformly from the sphere (the
    generator is seeded with ``rng_seed``, so results are reproducible).
    The three directions of each start are the next three rows of
    random_directions, which are the same directions as successive
    random_direction calls.  A seed has converged when one sweep moves every
    player by a chord below SWEEP_MOVE_TOL.  The sweeps of a block of seeds
    run together in numpy steps (_fixed_points), but each seed's fixed point
    has the bits it would have on its own, so the result does not depend on
    how seeds are grouped.  Each converged fixed point, in seed order, joins
    the earliest cluster whose representative is within DEDUP_TOL_RAD of it
    for every player, or else starts a new cluster.  Clusters are classified
    with verify_ne and returned in first-seen seed order.

    Candidate clusters are looked up by the cell of A's first component, so
    the dedup cost is near-linear in seeds unless many fixed points share
    that cell.

    The dynamics and the dedup run on plain (a1, a2, a3) float triples.
    Directions are built, and validated, only for each cluster's
    representative and each verify_ne response.
    """
    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds!r}")
    import numpy as np  # here, so that importing nash (and the CLI) does not load numpy

    rng = np.random.default_rng(rng_seed)
    clusters: list[tuple[list[Vec3], list[int]]] = []
    # An angle is at least the chord, which is at least |delta a1|, so a
    # cluster within DEDUP_TOL_RAD lies in the same or a neighbouring cell.
    cell = 2.0 * DEDUP_TOL_RAD
    cells: dict[int, list[int]] = {}
    failed: list[int] = []
    for seed_index, fixed in enumerate(_fixed_points(gammas(game), seeds, rng)):
        if fixed is None:
            failed.append(seed_index)
            continue
        key = math.floor(fixed[0][0] / cell)
        nearby = sorted(cells.get(key - 1, []) + cells.get(key, []) + cells.get(key + 1, []))
        for index in nearby:
            known, hits = clusters[index]
            if _profile_distance(known, fixed) < DEDUP_TOL_RAD:
                hits.append(seed_index)
                break
        else:
            cells.setdefault(key, []).append(len(clusters))
            clusters.append((fixed, [seed_index]))
    equilibria = []
    for fixed, hits in clusters:
        profile = DirectionProfile(*(Direction(*d) for d in fixed))
        equilibria.append(FoundEquilibrium(profile, verify_ne(game, profile), tuple(hits)))
    return SearchResult(tuple(equilibria), tuple(failed))


def case_a_constraints(
    game: SymmetricGame,
    starred: DirectionProfile,
    alt: DirectionProfile,
) -> tuple[float, float, float]:
    """The three in-plane deviation margins, one per player.

    Both profiles must lie in the X-Y plane.  Each returned value is the
    bracketed constraint for one player, that player's alternative direction
    played against the other players' starred directions; it equals eight
    times the corresponding payoff_diff.
    """
    require_inplane(starred, "starred")
    require_inplane(alt, "alternative")
    value_a, value_b, value_c = (
        8.0 * payoff_diff(game, starred, player, d) for player, d in zip(PLAYERS, (alt.a, alt.b, alt.c))
    )
    return (value_a, value_b, value_c)


def case_b_check(game: SymmetricGame, profile: DirectionProfile) -> bool:
    """True in the fully degenerate regime: gamma2 = 0 and an in-plane profile.

    There every deviation margin vanishes identically, so verify_ne reports
    weak for every in-plane profile.
    """
    return abs(gammas(game).gamma2) <= GRADIENT_TOL and in_plane(profile)


@dataclass(frozen=True)
class PDVerdict:
    """Whether six constants form a generalized three-player dilemma."""

    passed: bool
    violated: tuple[str, ...]


def check_pd(game: SymmetricGame) -> PDVerdict:
    """Check the strict inequalities defining the generalized dilemma.

    (a) defection dominates; (b) payoffs rise with opponent cooperation;
    (c) any two players facing a fixed third are themselves in a dilemma.
    """
    a, b, d, e, t, w = game.constants()
    conditions = (
        ("beta>alpha", b > a),
        ("omega>epsilon", w > e),
        ("theta>delta", t > d),
        ("beta>theta", b > t),
        ("theta>omega", t > w),
        ("alpha>delta", a > d),
        ("delta>epsilon", d > e),
        ("delta>omega", d > w),
        ("alpha>theta", a > t),
        ("delta>(epsilon+theta)/2", d > (e + t) / 2.0),
        ("alpha>(delta+beta)/2", a > (d + b) / 2.0),
    )
    violated = tuple(name for name, ok in conditions if not ok)
    return PDVerdict(passed=not violated, violated=violated)
