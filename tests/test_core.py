import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghzgames import core, ghz, nash
from ghzgames.core import (
    OUTCOMES,
    PLAYERS,
    X_AXIS,
    Direction,
    DirectionProfile,
    GeneralGame,
    JointDistribution,
    MixedProfile,
    NotUnitError,
    OutcomeTriple,
    PayoffTriple,
    SymmetricGame,
    ZeroVectorError,
    check_symmetry,
    make_direction,
    player_index,
    random_direction,
    symmetric_to_general,
)
from support import PD, symmetric_games, unit_directions


def test_make_direction_axis_vector():
    d = make_direction(0, 0, 1)
    assert d == Direction(0.0, 0.0, 1.0)


def test_make_direction_normalizes_scaling():
    assert make_direction(2, 0, 0, normalize=True) == Direction(1.0, 0.0, 0.0)


def test_make_direction_rejects_non_unit():
    with pytest.raises(NotUnitError):
        make_direction(1, 1, 0)


def test_make_direction_rejects_zero_with_normalize():
    with pytest.raises(ZeroVectorError):
        make_direction(0, 0, 0, normalize=True)


def test_direction_rejects_non_finite():
    with pytest.raises(NotUnitError):
        Direction(math.nan, 0, 0)


@given(unit_directions)
def test_normalize_is_idempotent_on_unit_vectors(d):
    again = make_direction(d.a1, d.a2, d.a3, normalize=True)
    assert math.hypot(again.a1 - d.a1, again.a2 - d.a2, again.a3 - d.a3) <= 1e-12


@given(unit_directions)
def test_direction_components_bounded(d):
    assert all(abs(x) <= 1 + 1e-9 for x in d.components())


def test_random_direction_normalizes_successive_normal_draws():
    rng, reference = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(100):
        v = reference.normal(size=3)
        norm = float(np.linalg.norm(v))
        assert random_direction(rng) == Direction(v[0] / norm, v[1] / norm, v[2] / norm)


def _normalized_rows(rng, count):
    """Reference starts: successive size-3 normal draws, each divided by its
    own ``math.sqrt(v.dot(v))`` in Python floats; a norm <= 1e-12 is skipped."""
    rows = []
    while len(rows) < count:
        v = rng.normal(size=3)
        norm = math.sqrt(v.dot(v))
        if norm > 1e-12:
            rows.append([x / norm for x in v.tolist()])
    return rows


@pytest.mark.parametrize("block", [1, 2, 4, 5, 3 * 1024])
@pytest.mark.parametrize("count", [0, 1, 3, 7, 12, 3 * 1024 + 5])
def test_random_directions_match_successive_random_direction_calls(monkeypatch, block, count):
    # The reference is what successive random_direction calls return: one
    # size-3 draw each, normalized on its own.  Blocks of 4 or 5 end inside
    # a seed's three starts.
    monkeypatch.setattr(core, "_DRAW_BLOCK", block)
    rng, reference = np.random.default_rng(17), np.random.default_rng(17)
    assert repr(core.random_directions(rng, count).tolist()) == repr(_normalized_rows(reference, count))
    assert rng.normal() == reference.normal()


def test_random_directions_take_the_norm_from_the_dot_product():
    # On about one row in ten the plain sum x*x + y*y + z*z rounds apart from
    # v.dot(v) and moves the normalized row; there the rows follow v.dot(v).
    rng, reference = np.random.default_rng(23), np.random.default_rng(23)
    moved = 0
    for row in core.random_directions(rng, 3000).tolist():
        v = reference.normal(size=3)
        x, y, z = v.tolist()
        by_dot = math.sqrt(v.dot(v))
        by_sum = math.sqrt(x * x + y * y + z * z)
        assert row == [x / by_dot, y / by_dot, z / by_dot]
        moved += row != [x / by_sum, y / by_sum, z / by_sum]
    assert moved > 100


class _RecordingGenerator:
    """A numpy generator that records the size of each normal draw."""

    def __init__(self, rng):
        self.rng = rng
        self.sizes = []

    def normal(self, size):
        self.sizes.append(size)
        return self.rng.normal(size=size)


def test_find_ne_draws_at_most_a_block_of_rows_at_once(monkeypatch):
    generators = []
    default_rng = np.random.default_rng

    def recording(seed):
        generators.append(_RecordingGenerator(default_rng(seed)))
        return generators[-1]

    monkeypatch.setattr(np.random, "default_rng", recording)
    nash.find_ne(PD, 2 * 1024 + 100, 0)
    (generator,) = generators
    assert max(rows for rows, _ in generator.sizes) <= core._DRAW_BLOCK
    assert sum(rows for rows, _ in generator.sizes) == 3 * (2 * 1024 + 100)


def test_find_ne_draws_the_same_starts_whatever_the_block(monkeypatch):
    expected = repr(nash.find_ne(PD, 20, 4))
    monkeypatch.setattr(core, "_DRAW_BLOCK", 4)
    assert repr(nash.find_ne(PD, 20, 4)) == expected


class _ZeroFirst:
    """A generator stub whose normal draws start with the zero vector."""

    def __init__(self, rows):
        self.rows = np.array(rows, dtype=float)
        self.sizes = []

    def normal(self, size):
        self.sizes.append(size)
        drawn, self.rows = self.rows[:size[0]], self.rows[size[0]:]
        return drawn


@pytest.mark.parametrize("block", [1, 2, 3 * 1024])
def test_random_directions_skip_a_zero_vector_to_the_next_row(monkeypatch, block):
    monkeypatch.setattr(core, "_DRAW_BLOCK", block)
    rng = _ZeroFirst([[0.0, 0.0, 0.0], [0.0, 3.0, 4.0], [2.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    assert core.random_directions(rng, 2).tolist() == [[0.0, 0.6, 0.8], [1.0, 0.0, 0.0]]
    assert sum(n for n, _ in rng.sizes) == 3
    assert all(n <= block for n, _ in rng.sizes)
    assert random_direction(rng) == Direction(0.0, 0.0, -1.0)


def _strategies(outcome):
    """The pure-strategy labels of an outcome: 'S1' for +1, 'S2' for -1."""
    return tuple("S1" if s > 0 else "S2" for s in outcome.signs())


def _from_label(label):
    """The outcome a label such as '+-+' names."""
    return OutcomeTriple(*(1 if ch == "+" else -1 for ch in label))


def test_outcome_strategy_bijection_round_trips():
    for outcome in OUTCOMES:
        assert OutcomeTriple.from_strategies(_strategies(outcome)) == outcome
        assert _from_label(outcome.label()) == outcome


def test_outcome_rejects_bad_signs():
    with pytest.raises(ValueError):
        OutcomeTriple(1, 0, 1)
    with pytest.raises(ValueError):
        OutcomeTriple(1, 1, 1.5)


def test_outcome_convention_plus_is_first_strategy():
    assert OutcomeTriple.from_strategies(("S1", "S2", "S1")) == OutcomeTriple(1, -1, 1)
    assert OutcomeTriple(1, -1, 1).label() == "+-+"


def test_symmetric_to_general_pd_all_cooperate_row():
    table = symmetric_to_general(PD)
    assert table.payoff(OutcomeTriple(1, 1, 1)) == PayoffTriple(7, 7, 7)


def test_symmetric_to_general_pd_mixed_row():
    # A defects, B cooperates, C defects: A and C take theta, B epsilon.
    table = symmetric_to_general(PD)
    assert table.payoff(OutcomeTriple(-1, 1, -1)) == PayoffTriple(5, 0, 5)


def test_symmetric_to_general_zero_game():
    table = symmetric_to_general(SymmetricGame(0, 0, 0, 0, 0, 0))
    for outcome in OUTCOMES:
        assert table.payoff(outcome) == PayoffTriple(0, 0, 0)


def test_check_symmetry_recovers_pd_constants():
    report = check_symmetry(symmetric_to_general(PD))
    assert report.symmetric
    assert report.game == PD
    assert report.violations == ()


@given(symmetric_games)
def test_check_symmetry_round_trip_is_exact(game):
    report = check_symmetry(symmetric_to_general(game))
    assert report.symmetric
    assert report.game == game


def _perturbed(table: GeneralGame, outcome: OutcomeTriple, player: str, bump: float) -> GeneralGame:
    entries = dict(table.entries)
    p = entries[outcome]
    values = {"A": p.pi_a, "B": p.pi_b, "C": p.pi_c}
    values[player] += bump
    entries[outcome] = PayoffTriple(values["A"], values["B"], values["C"])
    return GeneralGame(entries)


def test_check_symmetry_flags_single_b_row_perturbation():
    table = _perturbed(symmetric_to_general(PD), OutcomeTriple(1, 1, 1), "B", 1.0)
    report = check_symmetry(table)
    assert not report.symmetric
    assert report.game is None
    assert report.violations == ("b1 = a1",)


def test_check_symmetry_flags_row6_row7_mismatch():
    # Bump only player A's payoff in row 7; the sole condition touching it
    # is the a6 = a7 equality.
    table = _perturbed(symmetric_to_general(PD), OutcomeTriple(-1, -1, 1), "A", 0.5)
    report = check_symmetry(table)
    assert not report.symmetric
    assert "a6 = a7" in report.violations


def test_general_game_requires_all_eight_rows():
    entries = {o: PayoffTriple(0, 0, 0) for o in OUTCOMES[:-1]}
    with pytest.raises(ValueError):
        GeneralGame(entries)


def test_mixed_profile_bounds():
    MixedProfile(0, 0.5, 1)
    with pytest.raises(ValueError):
        MixedProfile(-0.1, 0.5, 0.5)
    with pytest.raises(ValueError):
        MixedProfile(0.5, 1.1, 0.5)


def test_symmetric_game_rejects_non_finite():
    with pytest.raises(ValueError):
        SymmetricGame(1, 2, 3, 4, 5, math.inf)


def _uniform_probs():
    return [0.125] * len(OUTCOMES)


def test_joint_distribution_clamps_tiny_negative_on_read():
    probs = _uniform_probs()
    probs[0] = -0.5e-12
    probs[1] = 0.25 + 0.5e-12
    dist = JointDistribution(probs)
    assert dist[OUTCOMES[0]] == 0.0


@pytest.mark.parametrize("dust, stored", [
    (-0.5e-12, 0.0), (-1e-12, 0.0), (-5e-324, 0.0), (-0.0, -0.0), (0.0, 0.0), (1e-13, 1e-13),
])
def test_joint_distribution_every_read_returns_the_stored_value(dust, stored):
    probs = _uniform_probs()
    probs[0] = dust
    probs[1] = 0.25 - dust
    dist = JointDistribution(probs)
    reads = [dist[OUTCOMES[0]], dist.values[0]]
    assert all(r == stored and math.copysign(1.0, r) == math.copysign(1.0, stored) for r in reads)
    assert repr(dist).startswith(f"JointDistribution({{+++: {stored!r}, -++: ")


def test_joint_distribution_rejects_large_negative():
    probs = _uniform_probs()
    probs[0] = -1e-9
    probs[1] = 0.25 + 1e-9
    with pytest.raises(ValueError):
        JointDistribution(probs)


def test_joint_distribution_rejects_bad_sum():
    probs = [0.2] * len(OUTCOMES)
    with pytest.raises(ValueError):
        JointDistribution(probs)


@pytest.mark.parametrize("use", [iter, list, dict, len, lambda dist: OUTCOMES[0] in dist])
def test_joint_distribution_is_not_a_collection(use):
    # Payoff weights are dist.values; a distribution itself must not pass for them.
    with pytest.raises(TypeError):
        use(JointDistribution(_uniform_probs()))


def test_player_index_follows_players_order():
    assert [player_index(p) for p in PLAYERS] == [0, 1, 2]
    assert [PayoffTriple(1, 2, 3).for_player(p) for p in PLAYERS] == [1.0, 2.0, 3.0]


_ALL_X = DirectionProfile(X_AXIS, X_AXIS, X_AXIS)


@pytest.mark.parametrize("check", [
    player_index,
    PayoffTriple(1, 2, 3).for_player,
    lambda player: ghz.marginal_single(_ALL_X, player),
    lambda player: nash._split(_ALL_X, player),
    lambda player: nash.best_response(PD, (X_AXIS, X_AXIS), player),
], ids=["player_index", "for_player", "marginal_single", "_split", "best_response"])
@pytest.mark.parametrize("player", ["D", "", "a", None, ["A"]], ids=["D", "empty", "a", "None", "list"])
def test_every_player_check_raises_the_same_message(check, player):
    with pytest.raises(ValueError) as info:
        check(player)
    assert str(info.value) == f"player must be one of ('A', 'B', 'C'), got {player!r}"
