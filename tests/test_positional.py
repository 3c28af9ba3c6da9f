"""The positional path (8-tuples in OUTCOMES order) equals the mapping path, bit for bit.

JointDistribution stores its values as a tuple in OUTCOMES order, the closed
form fills it in one pass, and expected_payoffs and check_symmetry read the
per-player columns of the table.  These properties compare each of those with
the per-outcome mapping form it replaced.
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
    GeneralGame,
    JointDistribution,
    PayoffTriple,
    SymmetricGame,
    SymmetryReport,
    check_symmetry,
    symmetric_to_general,
)
from support import direction_profiles, finite_payoffs, symmetric_games


def _same_float(x: float, y: float) -> bool:
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


@given(direction_profiles)
def test_closed_form_values_equal_clamped_kz_probability(profile):
    dist = ghz.joint_distribution(profile)
    expected = []
    for o in OUTCOMES:
        kz = ghz.kz_probability(o, profile)
        expected.append(0.0 if kz < 0 else kz)
    assert all(_same_float(dist[o], p) for o, p in zip(OUTCOMES, expected))
    assert all(_same_float(v, p) for v, p in zip(dist.values, expected))


_weights = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=8, max_size=8).filter(
    lambda w: sum(w) > 0.0
)


@st.composite
def _distribution_inputs(draw):
    """Eight probabilities in OUTCOMES order, valid or broken in one way."""
    weights = draw(_weights)
    values = [w / math.fsum(weights) for w in weights]
    spot = draw(st.integers(0, 7))
    flaw = draw(st.sampled_from(["none", "dust", "negative-zero", "nan", "inf", "below", "sum", "short", "long"]))
    if flaw == "dust":
        values[spot] = -draw(st.floats(min_value=0.0, max_value=1e-12))
    elif flaw == "negative-zero":
        values[spot] = -0.0
    elif flaw == "nan":
        values[spot] = math.nan
    elif flaw == "inf":
        values[spot] = draw(st.sampled_from([math.inf, -math.inf]))
    elif flaw == "below":
        values[spot] = -draw(st.floats(min_value=1.0000001e-12, max_value=1.0))
    elif flaw == "sum":
        values[spot] += draw(st.floats(min_value=1e-9, max_value=1.0))
    elif flaw == "short":
        del values[spot]
    elif flaw == "long":
        values.append(0.0)
    return values


def _build(probs):
    try:
        return repr(JointDistribution(probs))
    except ValueError as err:
        return f"ValueError: {err}"


@given(_distribution_inputs())
def test_sequence_and_mapping_construction_agree(values):
    # A ninth value needs a key that is not an outcome.
    mapping = dict(zip((*OUTCOMES, "ninth"), values))
    from_sequence = _build(values)
    assert from_sequence == _build(mapping)
    assert from_sequence == _build(tuple(values))


_tables = st.lists(st.tuples(finite_payoffs, finite_payoffs, finite_payoffs), min_size=8, max_size=8).map(
    lambda rows: GeneralGame(dict(zip(OUTCOMES, rows)))
)


@given(_tables, direction_profiles)
def test_expected_payoffs_positional_equals_mapping(table, profile):
    dist = ghz.joint_distribution(profile)
    by_mapping = game.expected_payoffs(table, dict(dist.items()))
    assert repr(game.expected_payoffs(table, dist)) == repr(by_mapping)
    # The per-outcome form the columns replaced.
    reference = PayoffTriple(*(
        math.fsum(dist[o] * table.payoff(o).for_player(player) for o in OUTCOMES)
        for player in PLAYERS
    ))
    assert repr(by_mapping) == repr(reference)


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


@pytest.mark.parametrize("probs", [[0.125] * 7, [0.125] * 9, {}])
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
