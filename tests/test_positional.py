"""The positional path (8-tuples in OUTCOMES order) equals the mapping path, bit for bit.

JointDistribution stores its values as a tuple in OUTCOMES order, the closed
form fills it in one pass, and expected_payoffs reads it against per-player
columns of the table.  These properties compare each of those with the
per-outcome mapping form it replaced.
"""

import dataclasses
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ghzgames import game, ghz
from ghzgames.core import OUTCOMES, PLAYERS, GeneralGame, JointDistribution, PayoffTriple
from support import direction_profiles, finite_payoffs


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
    by_mapping = game.expected_payoffs(table, dist.as_dict())
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
