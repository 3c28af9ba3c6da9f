"""Shared domain types and numeric conventions for three-player direction games.

Players A, B, and C each hold one qubit of a shared GHZ state and pick a
measurement direction (a unit vector) as their strategy.  Every measurement
is dichotomic, so a round produces an outcome triple in {+1, -1}^3, and the
eight outcome triples are in bijection with the eight pure-strategy triples
of a 2x2x2 game: outcome +1 corresponds to a player's first pure strategy,
outcome -1 to the second.

This module fixes those conventions once for the whole package:

* the outcome/strategy bijection and the canonical ordering of the eight
  triples (``OUTCOMES``, listed in the conventional payoff-table row order),
* the payoff-table types for general and symmetric games,
* the tolerances every other module shares.

All types are immutable values after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

if TYPE_CHECKING:
    import numpy as np

#: Direction inputs must have unit norm within this tolerance.
UNIT_NORM_TOL = 1e-9
#: Third components must be this close to zero for "in the X-Y plane".
INPLANE_TOL = 1e-9
#: Probabilities in [-PROB_CLAMP_TOL, 0) are stored as exactly 0; lower is an error.
PROB_CLAMP_TOL = 1e-12
#: Joint distributions must sum to 1 within this tolerance.
DIST_SUM_TOL = 1e-12
#: Tolerance for comparisons that hold exactly in the algebra.
EXACT_TOL = 1e-12

PLAYERS = ("A", "B", "C")


def player_index(player: str) -> int:
    """The player's position in PLAYERS; any other name raises ValueError."""
    try:
        return PLAYERS.index(player)
    except ValueError:
        raise ValueError(f"player must be one of {PLAYERS}, got {player!r}") from None


class ZeroVectorError(ValueError):
    """Normalization of the all-zero vector was requested."""


class NotUnitError(ValueError):
    """Components that must form a unit vector do not."""


class NotInPlaneError(ValueError):
    """An X-Y-plane operation received a direction with a third component."""


@dataclass(frozen=True)
class Direction:
    """A player's strategy: the unit vector along which their observable is measured."""

    a1: float
    a2: float
    a3: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "a1", float(self.a1))
        object.__setattr__(self, "a2", float(self.a2))
        object.__setattr__(self, "a3", float(self.a3))
        norm = math.hypot(self.a1, self.a2, self.a3)
        # Written so that a nan or inf norm fails too; only then is it worth
        # telling a non-finite component from a wrong length.
        if not abs(norm - 1.0) <= UNIT_NORM_TOL:
            if not all(math.isfinite(v) for v in (self.a1, self.a2, self.a3)):
                raise NotUnitError(f"direction components must be finite, got {self}")
            raise NotUnitError(
                f"({self.a1}, {self.a2}, {self.a3}) has norm {norm!r}; "
                f"unit norm required within {UNIT_NORM_TOL}"
            )

    def components(self) -> tuple[float, float, float]:
        return (self.a1, self.a2, self.a3)


X_AXIS = Direction(1.0, 0.0, 0.0)
Y_AXIS = Direction(0.0, 1.0, 0.0)
Z_AXIS = Direction(0.0, 0.0, 1.0)


def make_direction(a1: float, a2: float, a3: float, normalize: bool = False) -> Direction:
    """Build a Direction, optionally rescaling the input to unit norm.

    Without ``normalize`` the components must already be unit within
    UNIT_NORM_TOL (raises NotUnitError otherwise).  With ``normalize`` any
    nonzero vector is accepted (the all-zero vector raises ZeroVectorError).
    """
    if normalize:
        norm = math.hypot(a1, a2, a3)
        if norm == 0.0:
            raise ZeroVectorError("cannot normalize the zero vector")
        return Direction(a1 / norm, a2 / norm, a3 / norm)
    return Direction(a1, a2, a3)


def random_directions(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` directions drawn uniformly from the sphere, as the rows of a
    (count, 3) array.

    Each is a standard normal 3-vector divided by its norm; a vector with norm
    at most 1e-12 (practically unreachable) is skipped, and one more is drawn
    in its place.  The vectors are the rows of ``rng.normal(size=(n, 3))``
    calls.  Such a call consumes the normal stream as n successive
    ``rng.normal(size=3)`` calls do, so successive calls draw the same
    directions as one call for all of them.  The rows are normalized
    together, with the bits that ``math.sqrt(v.dot(v))`` and a Python
    division give row by row: the stacked product ``v[:, None, :] @ v[:, :,
    None]`` goes to the same dot kernel as ``v.dot(v)``, and sqrt and
    division are correctly rounded in numpy as in Python.  (An ``einsum`` or
    a plain sum of squares rounds differently.)
    """
    import numpy as np  # here, so that importing core (and the CLI) does not load numpy

    blocks = []
    while count > 0:
        v = rng.normal(size=(count, 3))
        norm = np.sqrt((v[:, None, :] @ v[:, :, None]).ravel())
        if norm.min() <= 1e-12:
            v, norm = v[norm > 1e-12], norm[norm > 1e-12]
        blocks.append(v / norm[:, None])
        count -= len(v)
    return np.concatenate(blocks) if blocks else np.empty((0, 3))


def random_direction(rng: np.random.Generator) -> Direction:
    """The first row of random_directions: one ``rng.normal(size=3)`` draw,
    normalized, and a new draw in the near-zero case."""
    return Direction(*random_directions(rng, 1)[0])


@dataclass(frozen=True)
class DirectionProfile:
    """The three players' directions, in player order A, B, C."""

    a: Direction
    b: Direction
    c: Direction


def in_plane(profile: DirectionProfile) -> bool:
    """True when every direction's third component is within INPLANE_TOL of 0."""
    return all(abs(d.a3) <= INPLANE_TOL for d in (profile.a, profile.b, profile.c))


def require_inplane(profile: DirectionProfile, role: str = "the") -> None:
    """Raise NotInPlaneError unless the profile lies in the X-Y plane."""
    if not in_plane(profile):
        raise NotInPlaneError(
            f"{role} profile has third components "
            f"{(profile.a.a3, profile.b.a3, profile.c.a3)!r} "
            f"(each must be within {INPLANE_TOL} of 0)"
        )


@dataclass(frozen=True)
class OutcomeTriple:
    """Measurement outcomes (m, l, k) for players A, B, C; each is +1 or -1.

    Outcome +1 corresponds to the player's first pure strategy, -1 to the
    second; this is the one canonical table used everywhere in the package.
    """

    m: int
    l: int
    k: int

    def __post_init__(self) -> None:
        for name in ("m", "l", "k"):
            raw = getattr(self, name)
            value = int(raw)
            if value != raw or value not in (1, -1):
                raise ValueError(f"outcome {name} must be +1 or -1, got {raw!r}")
            object.__setattr__(self, name, value)

    def signs(self) -> tuple[int, int, int]:
        return (self.m, self.l, self.k)

    def label(self) -> str:
        """Compact form like '+-+' in player order A, B, C."""
        return "".join("+" if s > 0 else "-" for s in self.signs())

    @classmethod
    def from_strategies(cls, strategies: Sequence[str]) -> "OutcomeTriple":
        if len(strategies) != 3:
            raise ValueError(f"need exactly 3 strategy labels, got {strategies!r}")
        signs = []
        for label in strategies:
            if label == "S1":
                signs.append(1)
            elif label == "S2":
                signs.append(-1)
            else:
                raise ValueError(f"strategy label must be 'S1' or 'S2', got {label!r}")
        return cls(*signs)


#: The eight outcome triples in the canonical payoff-table row order.
OUTCOMES = (
    OutcomeTriple(+1, +1, +1),
    OutcomeTriple(-1, +1, +1),
    OutcomeTriple(+1, -1, +1),
    OutcomeTriple(+1, +1, -1),
    OutcomeTriple(+1, -1, -1),
    OutcomeTriple(-1, +1, -1),
    OutcomeTriple(-1, -1, +1),
    OutcomeTriple(-1, -1, -1),
)
#: Each outcome triple's position in OUTCOMES.
OUTCOME_INDEX = {outcome: index for index, outcome in enumerate(OUTCOMES)}


@dataclass(frozen=True)
class PayoffTriple:
    """Payoffs to players A, B, C for one outcome (or in expectation)."""

    pi_a: float
    pi_b: float
    pi_c: float

    def __post_init__(self) -> None:
        for name in ("pi_a", "pi_b", "pi_c"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"payoff {name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

    def for_player(self, player: str) -> float:
        return (self.pi_a, self.pi_b, self.pi_c)[player_index(player)]


@dataclass(frozen=True)
class GeneralGame:
    """A 2x2x2 game: one payoff triple per pure-strategy triple (all 8 present).

    ``columns`` holds players A's, B's and C's payoffs, each as an 8-tuple in
    OUTCOMES order.  It is derived from ``entries`` and is not a dataclass
    field, so repr and == see only the entries.
    """

    entries: Mapping[OutcomeTriple, PayoffTriple]

    def __post_init__(self) -> None:
        items = dict(self.entries)
        if set(items) != set(OUTCOMES):
            raise ValueError("a general game needs exactly one entry per strategy triple")
        table = {}
        for outcome in OUTCOMES:
            value = items[outcome]
            if not isinstance(value, PayoffTriple):
                value = PayoffTriple(*value)
            table[outcome] = value
        object.__setattr__(self, "entries", table)
        object.__setattr__(self, "columns", (
            tuple(p.pi_a for p in table.values()),
            tuple(p.pi_b for p in table.values()),
            tuple(p.pi_c for p in table.values()),
        ))

    def payoff(self, outcome: OutcomeTriple) -> PayoffTriple:
        return self.entries[outcome]


#: The six payoff constants of a symmetric game, in SymmetricGame field order.
SYMMETRIC_CONSTANTS = ("alpha", "beta", "delta", "epsilon", "theta", "omega")


@dataclass(frozen=True)
class SymmetricGame:
    """A symmetric 2x2x2 game, fully described by six payoff constants.

    ``alpha`` pays everyone when all cooperate (first strategy); ``omega``
    when all defect.  ``beta`` is the lone defector's payoff against two
    cooperators (who each get ``delta``); ``epsilon`` is the lone cooperator's
    payoff against two defectors (who each get ``theta``).
    """

    alpha: float
    beta: float
    delta: float
    epsilon: float
    theta: float
    omega: float

    def __post_init__(self) -> None:
        for name in SYMMETRIC_CONSTANTS:
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"payoff constant {name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

    def constants(self) -> tuple[float, float, float, float, float, float]:
        return (self.alpha, self.beta, self.delta, self.epsilon, self.theta, self.omega)


def symmetric_to_general(game: SymmetricGame) -> GeneralGame:
    """Expand the six constants into the full eight-row payoff table."""
    a, b, d, e, t, w = game.constants()
    rows = {
        OutcomeTriple(+1, +1, +1): (a, a, a),
        OutcomeTriple(-1, +1, +1): (b, d, d),
        OutcomeTriple(+1, -1, +1): (d, b, d),
        OutcomeTriple(+1, +1, -1): (d, d, b),
        OutcomeTriple(+1, -1, -1): (e, t, t),
        OutcomeTriple(-1, +1, -1): (t, e, t),
        OutcomeTriple(-1, -1, +1): (t, t, e),
        OutcomeTriple(-1, -1, -1): (w, w, w),
    }
    return GeneralGame({o: PayoffTriple(*p) for o, p in rows.items()})


@dataclass(frozen=True)
class SymmetryReport:
    """Outcome of the player-symmetry check on a general game.

    When symmetric, ``game`` holds the recovered six constants.  Otherwise
    ``violations`` names every failed equality, written with the row payoffs
    ``a<i>``/``b<i>``/``c<i>`` = payoff to player A/B/C in the i-th canonical
    row (1-based, in ``OUTCOMES`` order).
    """

    symmetric: bool
    game: SymmetricGame | None
    violations: tuple[str, ...]


# The 18 equalities a payoff table must satisfy to be player-symmetric,
# written over the row payoffs a1..a8, b1..b8, c1..c8.
_SYMMETRY_CONDITIONS = (
    ("b1", "a1"), ("b2", "a3"), ("b3", "a2"), ("b4", "a3"),
    ("b5", "a6"), ("b6", "a5"), ("b7", "a6"), ("b8", "a8"),
    ("c1", "a1"), ("c2", "a3"), ("c3", "a3"), ("c4", "a2"),
    ("c5", "a6"), ("c6", "a6"), ("c7", "a5"), ("c8", "a8"),
    ("a6", "a7"), ("a3", "a4"),
)


def check_symmetry(game: GeneralGame) -> SymmetryReport:
    """Decide whether a general game is player-symmetric.

    All 18 defining equalities must hold within EXACT_TOL; on success the six
    constants are read off rows 1, 2, 3, 5, 6, and 8.
    """
    values = {
        f"{player}{i}": payoff
        for player, column in zip("abc", game.columns)
        for i, payoff in enumerate(column, start=1)
    }
    violations = tuple(
        f"{lhs} = {rhs}"
        for lhs, rhs in _SYMMETRY_CONDITIONS
        if abs(values[lhs] - values[rhs]) > EXACT_TOL
    )
    if violations:
        return SymmetryReport(False, None, violations)
    recovered = SymmetricGame(*(values[f"a{i}"] for i in (1, 2, 3, 5, 6, 8)))
    return SymmetryReport(True, recovered, ())


@dataclass(frozen=True)
class MixedProfile:
    """Mixed strategies: each player's probability of playing their first pure strategy."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "z"):
            value = float(getattr(self, name))
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"probability {name} must lie in [0, 1], got {value!r}")
            object.__setattr__(self, name, value)


class JointDistribution:
    """Probabilities over the eight outcome triples, stored as an 8-tuple in
    OUTCOMES order (``values``).

    Built from an 8-sequence in OUTCOMES order.  Construction checks that
    there are exactly eight entries, that no entry is non-finite or below
    -PROB_CLAMP_TOL (the first offending entry in OUTCOMES order is named),
    and that the entries sum to 1 within DIST_SUM_TOL.  Rounding dust in
    [-PROB_CLAMP_TOL, 0) is stored, and so read, as exactly 0; the sum is
    checked on the values as given.  A distribution is not iterable: payoff
    weights are its ``values``, and ``dist[outcome]`` reads one entry.
    """

    __slots__ = ("_values",)
    __iter__ = None

    def __init__(self, probs: Sequence[float]):
        if len(probs) != len(OUTCOMES):
            raise ValueError("a joint distribution needs exactly the 8 canonical outcomes")
        given = values = tuple(map(float, probs))
        # The sum is finite only if every entry is; then nothing to reject or clamp.
        if not (math.isfinite(sum(given)) and min(given) >= 0.0):
            values = tuple(map(_stored_probability, OUTCOMES, given))
        total = math.fsum(given)
        if abs(total - 1.0) > DIST_SUM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        self._values = values

    @property
    def values(self) -> tuple[float, ...]:
        """The eight probabilities in OUTCOMES order."""
        return self._values

    def __getitem__(self, outcome: OutcomeTriple) -> float:
        return self._values[OUTCOME_INDEX[outcome]]

    def __repr__(self) -> str:
        entries = ", ".join(f"{o.label()}: {p!r}" for o, p in zip(OUTCOMES, self._values))
        return f"JointDistribution({{{entries}}})"


def _stored_probability(outcome: OutcomeTriple, p: float) -> float:
    """One finite entry of at least -PROB_CLAMP_TOL, with dust below 0 stored as 0."""
    if not math.isfinite(p):
        raise ValueError(f"probability for {outcome.label()} must be finite")
    if p < -PROB_CLAMP_TOL:
        raise ValueError(f"probability {p!r} for {outcome.label()} is below -{PROB_CLAMP_TOL}")
    return 0.0 if p < 0.0 else p
