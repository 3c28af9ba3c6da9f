"""The positional path (8-tuples in OUTCOMES order) equals the per-outcome form, bit for bit.

JointDistribution stores its values as a tuple in OUTCOMES order, the closed
form fills it in one pass, and expected_payoffs and check_symmetry read the
per-player columns of the table.  These properties compare each of those with
a per-outcome reference kept here: the closed form one outcome at a time
(support.kz_probability), the expectation as an fsum over table.payoff(o), and
the symmetry check keyed by payoff().
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzgames import core, game, ghz
from ghzgames.core import (
    EXACT_TOL,
    OUTCOMES,
    PLAYERS,
    Direction,
    DirectionProfile,
    GeneralGame,
    JointDistribution,
    MixedProfile,
    PayoffTriple,
    SymmetricGame,
    SymmetryReport,
    check_symmetry,
    symmetric_to_general,
)
from support import direction_profiles, finite_payoffs, kz_probability, quantum_payoffs_inplane, symmetric_games


def _same_float(x: float, y: float) -> bool:
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def _stored_kz(outcome, profile) -> float:
    """kz_probability with dust below 0 stored as 0, as JointDistribution stores it."""
    p = kz_probability(outcome, profile)
    return 0.0 if p < 0 else p


@given(direction_profiles)
def test_closed_form_values_equal_clamped_kz_probability(profile):
    dist = ghz.joint_distribution(profile)
    expected = [_stored_kz(o, profile) for o in OUTCOMES]
    assert all(_same_float(dist[o], p) for o, p in zip(OUTCOMES, expected))
    assert all(_same_float(v, p) for v, p in zip(dist.values, expected))


_tables = st.lists(st.tuples(finite_payoffs, finite_payoffs, finite_payoffs), min_size=8, max_size=8).map(
    lambda rows: GeneralGame(dict(zip(OUTCOMES, rows)))
)
_unit_interval = st.floats(min_value=0.0, max_value=1.0)
_inplane_directions = st.floats(min_value=0.0, max_value=2.0 * math.pi).map(
    lambda t: Direction(math.cos(t), math.sin(t), 0.0)
)


def _payoffs_by_outcome(table: GeneralGame, weight) -> PayoffTriple:
    """Each player's fsum over the outcomes of weight(o) times table.payoff(o):
    the per-outcome reference for expected_payoffs, which reads the columns."""
    return PayoffTriple(*(
        math.fsum(weight(o) * table.payoff(o).for_player(player) for o in OUTCOMES)
        for player in PLAYERS
    ))


@given(
    _tables,
    st.builds(MixedProfile, _unit_interval, _unit_interval, _unit_interval),
    direction_profiles,
    symmetric_games,
    st.builds(DirectionProfile, _inplane_directions, _inplane_directions, _inplane_directions),
)
def test_payoffs_equal_the_per_outcome_reference(table, mixed, profile, symmetric, inplane):
    classical = _payoffs_by_outcome(table, lambda o: game.product_weight(o, mixed))
    assert repr(game.classical_payoffs(table, mixed)) == repr(classical)
    quantum = _payoffs_by_outcome(table, lambda o: _stored_kz(o, profile))
    assert repr(game.quantum_payoffs(table, profile)) == repr(quantum)
    # With every third component 0 the closed form is the in-plane weight, bit for bit.
    in_plane = _payoffs_by_outcome(symmetric_to_general(symmetric), lambda o: kz_probability(o, inplane))
    assert repr(quantum_payoffs_inplane(symmetric, inplane)) == repr(in_plane)


@given(_tables)
def test_general_game_columns_leave_repr_and_equality_alone(table):
    entries = dict(table.entries)
    assert repr(table) == f"GeneralGame(entries={entries!r})"
    assert [f.name for f in dataclasses.fields(GeneralGame)] == ["entries"]
    assert table == GeneralGame(dict(reversed(list(entries.items()))))
    changed = dict(entries)
    first = changed[OUTCOMES[0]]
    changed[OUTCOMES[0]] = PayoffTriple(first.pi_a + 1.0, first.pi_b, first.pi_c)
    assert table != GeneralGame(changed)
    assert table.columns == tuple(
        tuple(table.payoff(o).for_player(player) for o in OUTCOMES) for player in PLAYERS
    )


@pytest.mark.parametrize("probs", [[0.125] * 7, [0.125] * 9, ()])
def test_wrong_length_names_the_outcome_set(probs):
    with pytest.raises(ValueError, match="exactly the 8 canonical outcomes"):
        JointDistribution(probs)


def _check_symmetry_by_payoff(table: GeneralGame) -> SymmetryReport:
    """check_symmetry as it read the table before columns: 24 payoff() reads."""
    values: dict[str, float] = {}
    for i, outcome in enumerate(OUTCOMES, start=1):
        payoffs = table.payoff(outcome)
        values[f"a{i}"] = payoffs.pi_a
        values[f"b{i}"] = payoffs.pi_b
        values[f"c{i}"] = payoffs.pi_c
    violations = tuple(
        f"{lhs} = {rhs}"
        for lhs, rhs in core._SYMMETRY_CONDITIONS
        if abs(values[lhs] - values[rhs]) > EXACT_TOL
    )
    if violations:
        return SymmetryReport(False, None, violations)
    recovered = SymmetricGame(
        alpha=values["a1"], beta=values["a2"], delta=values["a3"],
        epsilon=values["a5"], theta=values["a6"], omega=values["a8"],
    )
    return SymmetryReport(True, recovered, ())


def _position(name: str) -> tuple[int, int]:
    """The column and row of a row payoff such as 'b3' in GeneralGame.columns."""
    return "abc".index(name[0]), int(name[1:]) - 1


def _moved(table: GeneralGame, name: str, value: float) -> GeneralGame:
    """The table with row payoff ``name`` set to ``value``."""
    columns = [list(column) for column in table.columns]
    player, row = _position(name)
    columns[player][row] = value
    return GeneralGame(dict(zip(OUTCOMES, map(PayoffTriple, *columns))))


#: EXACT_TOL and its float neighbours, with both signs.
_TOL_OFFSETS = tuple(
    sign * t
    for t in (math.nextafter(EXACT_TOL, 0.0), EXACT_TOL, math.nextafter(EXACT_TOL, 1.0))
    for sign in (1.0, -1.0)
)


@st.composite
def _near_tolerance_tables(draw):
    """A symmetric table with one payoff moved to EXACT_TOL, or a neighbour of
    it, away from its partner in one of the symmetry equalities."""
    table = symmetric_to_general(draw(st.one_of(st.just(SymmetricGame(0, 0, 0, 0, 0, 0)), symmetric_games)))
    lhs, rhs = draw(st.sampled_from(core._SYMMETRY_CONDITIONS))
    player, row = _position(rhs)
    partner = table.columns[player][row]
    return _moved(table, lhs, partner + draw(st.sampled_from(_TOL_OFFSETS)))


@settings(max_examples=200)
@given(st.one_of(_tables, symmetric_games.map(symmetric_to_general), _near_tolerance_tables()))
def test_check_symmetry_equals_the_payoff_keyed_reference(table):
    assert repr(check_symmetry(table)) == repr(_check_symmetry_by_payoff(table))


@pytest.mark.parametrize("offset, symmetric", [
    (EXACT_TOL, True), (-EXACT_TOL, True), (math.nextafter(EXACT_TOL, 1.0), False),
])
def test_check_symmetry_tolerance_includes_its_bound(offset, symmetric):
    table = _moved(symmetric_to_general(SymmetricGame(0, 0, 0, 0, 0, 0)), "c4", offset)
    report = check_symmetry(table)
    assert report.symmetric is symmetric
    assert report.violations == (() if symmetric else ("c4 = a2",))
