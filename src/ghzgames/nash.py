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

The search, the verdicts and the payoff differences run on the invariants
scaled by a power of two, so that the larger of the pair lies in [1, 2)
(``_unit_gammas``).  The scaling is exact outside the subnormal range, so it
moves no fixed point, but the tolerances are read in those units: a verdict
does not depend on the unit the payoffs are written in, and no gradient can
overflow.  Payoff differences and witness gains are scaled back to payoff
units, saturating to +-inf (``_payoff_units``).

``find_ne`` runs cyclic best-response dynamics from random starts.  The
seeds of a block sweep together in numpy steps, through the same
_payoff_gradient and with math.hypot for every norm, so each fixed point has
the bits a seed would reach on its own; the last few seeds of a block, and
blocks too small to batch, run in the per-seed loop.  The
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
#: A best-response sweep that moves every player less than this angle has converged.
SWEEP_MOVE_TOL = 1e-10
#: Fixed points closer than this (max angle over players) are deduplicated.
DEDUP_TOL_RAD = 1e-6
#: Best-response sweeps per seed before giving up.
MAX_SWEEPS = 10_000

# Every distance between two directions is taken as their chord,
# math.dist(d, e), not as their angle, twice the arcsine of half the chord.
# Below 2**-26 the two are equal in floating point, and above it the angle is
# at least the chord, so ALIGN_TOL_RAD and SWEEP_MOVE_TOL are compared with
# the chord as they stand.  A chord is below _DEDUP_CHORD exactly when its
# angle is below DEDUP_TOL_RAD.
_DEDUP_CHORD = 2.0 * math.sin(DEDUP_TOL_RAD / 2.0)

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


def _unit_gammas(game: SymmetricGame) -> tuple[GammaPair, int]:
    """The game's invariants times 2**-k, with the larger in [1, 2), and k.

    The six constants are first scaled below 1/4 in size, so that forming
    the pair cannot overflow, and the pair is then scaled into [1, 2).  Both
    steps multiply by powers of two, which is exact unless a result is
    subnormal.  A zero pair stays zero.
    """
    constants = game.constants()
    k = math.frexp(max(map(abs, constants)))[1] + 2
    gp = gammas(SymmetricGame(*(math.ldexp(c, -k) for c in constants)))
    peak = max(abs(gp.gamma1), abs(gp.gamma2))
    if peak:
        j = math.frexp(peak)[1] - 1
        gp = GammaPair(math.ldexp(gp.gamma1, -j), math.ldexp(gp.gamma2, -j))
        k += j
    return gp, k


def _respond(gp: GammaPair, u: Vec3, v: Vec3) -> tuple[Vec3, float, Vec3 | None]:
    """The payoff gradient against opponents u and v, its norm, and the best
    response: the normalized gradient, or None when the norm is at most
    GRADIENT_TOL and every direction is optimal.

    ``gp`` is a _unit_gammas pair, so each gradient component is at most 4
    in size and GRADIENT_TOL is read in those units.  A norm above
    GRADIENT_TOL normalizes to a unit vector within a few ulps, so the
    response needs no validation.
    """
    grad = _payoff_gradient(gp, u, v)
    norm = math.hypot(*grad)
    if norm <= GRADIENT_TOL:
        return grad, norm, None
    return grad, norm, (grad[0] / norm, grad[1] / norm, grad[2] / norm)


def _payoff_units(value: float, k: int) -> float:
    """A value in the units of the _unit_gammas pair with exponent k, in
    payoff units: value * 2**k, saturated to +-inf beyond the float range."""
    try:
        return math.ldexp(value, k)
    except OverflowError:
        return math.copysign(math.inf, value)


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
    gradient dotted with the change of direction.  It is computed on the
    _unit_gammas pair and scaled back, so constants near the float maximum
    give a finite loss, or +-inf beyond the float range.
    """
    gp, k = _unit_gammas(game)
    own, u, v = _split(starred, deviator)
    grad = _payoff_gradient(gp, u, v)
    loss = (
        grad[0] * (own[0] - alt.a1)
        + grad[1] * (own[1] - alt.a2)
        + grad[2] * (own[2] - alt.a3)
    ) / 8.0
    return _payoff_units(loss, k)


def best_response(
    game: SymmetricGame,
    others: tuple[Direction, Direction],
    player: str,
) -> Direction | None:
    """The payoff-maximizing direction against two fixed opponents.

    ``others`` lists the remaining players in A, B, C order.  Returns the
    normalized payoff gradient, or None when the gradient vanishes and every
    direction is optimal (full indifference), with GRADIENT_TOL read in the
    units of _unit_gammas.
    """
    player_index(player)
    response = _respond(_unit_gammas(game)[0], others[0].components(), others[1].components())[2]
    return None if response is None else Direction(*response)


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
    verdict is not_ne.  Its gain is in payoff units and exceeds GAIN_TOL * 2**k,
    with k from _unit_gammas; a gain beyond the float range is inf.
    """

    verdict: str
    best_responses: Mapping[str, Direction | None]
    witness: DeviationWitness | None


def verify_ne(game: SymmetricGame, profile: DirectionProfile) -> NEReport:
    """Classify a profile as strict, weak, or not an equilibrium.

    Strict requires every player's gradient to be nonzero and aligned with
    the played direction within ALIGN_TOL_RAD.  A deviation gaining more than
    GAIN_TOL yields not_ne with the best response as witness (largest gain,
    ties broken in player order).  Everything else is weak.  The gradients
    and gains are tested in the units of _unit_gammas, so scaling the six
    constants by a power of two keeps the verdict, and so does any other
    positive factor unless a margin sits at a tolerance.
    """
    return _verify(*_unit_gammas(game), profile)


def _verify(gp: GammaPair, k: int, profile: DirectionProfile) -> NEReport:
    """verify_ne's report, given the game's _unit_gammas pair and its k."""
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
        rows.append((player, best[player], gain, math.dist(own, response) <= ALIGN_TOL_RAD))
    worst = max(rows, key=lambda row: row[2])
    if worst[2] > GAIN_TOL:
        return NEReport(NOT_NE, best, DeviationWitness(worst[0], worst[1], _payoff_units(worst[2], k)))
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

    _sweep_block runs the same sweep for many seeds at once, with the same
    bits, and hands its last seeds to this loop with the sweeps they have
    left.  ``gp`` is a _unit_gammas pair, so no norm can overflow, and
    nothing here builds a Direction.
    """
    for _ in range(sweeps):
        moved = 0.0
        for own, i, j in _UPDATES:
            response = _respond(gp, dirs[i], dirs[j])[2]
            if response is not None:
                chord = math.dist(dirs[own], response)
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
    components, and ``gp`` is a _unit_gammas pair.  While at least _HANDOFF
    seeds are unconverged, each advances one sweep per numpy step: each
    update is _payoff_gradient on the column arrays, normalized as _respond
    does with each norm taken by math.hypot, so every seed follows the path
    the per-seed loop would.  The rest, all of a block smaller than
    _HANDOFF, continue in _iterate_best_responses with the sweeps that
    remain of MAX_SWEEPS.
    """
    import numpy as np

    fixed: list[list[Vec3] | None] = [None] * len(starts)
    active = np.arange(len(starts))
    # cols[3 * p + k]: component k of player p, one entry per active seed.
    cols = list(starts.T.copy())
    done_sweeps = 0
    while len(active) >= _HANDOFF and done_sweeps < MAX_SWEEPS:
        done_sweeps += 1
        converged = np.ones(len(active), dtype=bool)
        for own, i, j in _UPDATES:
            grad = _payoff_gradient(gp, cols[3 * i:3 * i + 3], cols[3 * j:3 * j + 3])
            norm = _hypot(*grad)
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

    ``gp`` is a _unit_gammas pair.  The starts are drawn _SEED_BLOCK seeds
    at a time, the next three random_directions rows per seed, and each
    block is swept by _sweep_block.
    """
    for first in range(0, seeds, _SEED_BLOCK):
        count = min(_SEED_BLOCK, seeds - first)
        starts = random_directions(rng, len(PLAYERS) * count)
        yield from _sweep_block(gp, starts.reshape(count, 3 * len(PLAYERS)))


def _profile_distance(p: list[Vec3], q: list[Vec3]) -> float:
    """The largest chord between two fixed points' directions, over players."""
    return max(map(math.dist, p, q))


def find_ne(game: SymmetricGame, seeds: int, rng_seed: int) -> SearchResult:
    """Search for equilibria by best-response dynamics from random starts.

    Runs ``seeds`` independent starts drawn uniformly from the sphere (the
    generator is seeded with ``rng_seed``, so results are reproducible).
    The three directions of each start are the next three rows of
    random_directions, which are the same directions as successive
    random_direction calls.  A seed has converged when one sweep moves every
    player by less than SWEEP_MOVE_TOL.  The sweeps of a block of seeds
    run together in numpy steps (_fixed_points), but each seed's fixed point
    has the bits it would have on its own, so the result does not depend on
    how seeds are grouped.  Each converged fixed point, in seed order, joins
    the earliest cluster whose representative is within DEDUP_TOL_RAD of it
    for every player, or else starts a new cluster.  Clusters are classified
    as verify_ne does and returned in first-seen seed order.  The dynamics
    and the verdicts share one _unit_gammas pair, so scaling the six
    constants by a power of two keeps every verdict, and every fixed point's
    bits unless a gradient component is subnormal.

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
    # A chord is at least |delta a1|, so a cluster within _DEDUP_CHORD
    # lies in the same or a neighbouring cell.
    cell = 2.0 * DEDUP_TOL_RAD
    cells: dict[int, list[int]] = {}
    failed: list[int] = []
    gp, k = _unit_gammas(game)
    for seed_index, fixed in enumerate(_fixed_points(gp, seeds, rng)):
        if fixed is None:
            failed.append(seed_index)
            continue
        key = math.floor(fixed[0][0] / cell)
        nearby = sorted(cells.get(key - 1, []) + cells.get(key, []) + cells.get(key + 1, []))
        for index in nearby:
            known, hits = clusters[index]
            if _profile_distance(known, fixed) < _DEDUP_CHORD:
                hits.append(seed_index)
                break
        else:
            cells.setdefault(key, []).append(len(clusters))
            clusters.append((fixed, [seed_index]))
    equilibria = []
    for fixed, hits in clusters:
        profile = DirectionProfile(*(Direction(*d) for d in fixed))
        equilibria.append(FoundEquilibrium(profile, _verify(gp, k, profile), tuple(hits)))
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
    weak for every in-plane profile.  gamma2 is compared with GRADIENT_TOL
    in the units of _unit_gammas, as verify_ne compares gradient norms.
    """
    return abs(_unit_gammas(game)[0].gamma2) <= GRADIENT_TOL and in_plane(profile)


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
