import itertools
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given

from ghzgames import ghz, oracle
from ghzgames.core import (
    OUTCOMES,
    PLAYERS,
    Direction,
    DirectionProfile,
    OutcomeTriple,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
)
from support import checkout_env, direction_profiles, kz_probability, random_profile

ALL_X = DirectionProfile(X_AXIS, X_AXIS, X_AXIS)
ALL_Y = DirectionProfile(Y_AXIS, Y_AXIS, Y_AXIS)
ALL_Z = DirectionProfile(Z_AXIS, Z_AXIS, Z_AXIS)

#: Correlation tensor M with M[0,0,0] = 1 and M[0,1,1] = M[1,0,1] = M[1,1,0] = -1
#: (zero-based indices over the x/y/z components of a, b, c respectively);
#: ghz.delta is its contraction with a, b and c.
CORRELATION_TENSOR = np.zeros((3, 3, 3))
CORRELATION_TENSOR[0, 0, 0] = 1.0
CORRELATION_TENSOR[0, 1, 1] = -1.0
CORRELATION_TENSOR[1, 0, 1] = -1.0
CORRELATION_TENSOR[1, 1, 0] = -1.0
CORRELATION_TENSOR.setflags(write=False)


def test_correlation_tensor_has_exactly_four_nonzero_entries():
    nonzero = {
        idx: CORRELATION_TENSOR[idx]
        for idx in itertools.product(range(3), repeat=3)
        if CORRELATION_TENSOR[idx] != 0.0
    }
    assert nonzero == {(0, 0, 0): 1.0, (0, 1, 1): -1.0, (1, 0, 1): -1.0, (1, 1, 0): -1.0}


@given(direction_profiles)
def test_tensor_contraction_matches_reduced_form(profile):
    a = np.array(profile.a.components())
    b = np.array(profile.b.components())
    c = np.array(profile.c.components())
    contracted = float(np.einsum("rps,r,p,s->", CORRELATION_TENSOR, a, b, c))
    assert abs(contracted - ghz.delta(profile)) <= 1e-12


def _fresh_python(code, *argv):
    """Run code in a new interpreter with this checkout's src first on the path."""
    return subprocess.run([sys.executable, "-c", code, *argv], env=checkout_env(),
                          capture_output=True, text=True, timeout=60)


def test_closed_form_modules_load_without_numpy():
    code = "import sys, ghzgames.core, ghzgames.ghz, ghzgames.game, ghzgames.cli; print('numpy' in sys.modules)"
    proc = _fresh_python(code)
    assert proc.stdout == "False\n", proc.stderr


_DIRECTIONS = ("--a=1,0,0", "--b=0,1,0", "--c=0,0,1")


@pytest.mark.parametrize("argv, loads_numpy", [
    (("probs", *_DIRECTIONS), False),
    (("sweep", "{game}", "--rotate", "A", "--steps", "8", "--b=1,0,0", "--c=0,1,0"), False),
    (("ne", "{game}", "verify", *_DIRECTIONS), False),
    (("probs", *_DIRECTIONS, "--oracle"), True),
    (("ne", "{game}", "find", "--seeds", "4"), True),
], ids=["probs", "sweep", "ne-verify", "probs-oracle", "ne-find"])
def test_only_oracle_and_search_commands_load_numpy(tmp_path, argv, loads_numpy):
    game = tmp_path / "pd.json"
    game.write_text('{"type": "symmetric", "alpha": 7, "beta": 9, "delta": 3, '
                    '"epsilon": 0, "theta": 5, "omega": 1}', encoding="utf-8")
    code = ("import sys; from ghzgames import cli; exit_code = cli.main(sys.argv[1:]); "
            "print('exit', exit_code, 'numpy' in sys.modules)")
    proc = _fresh_python(code, *(arg.format(game=game) for arg in argv))
    assert proc.stdout.splitlines()[-1] == f"exit 0 {loads_numpy}", proc.stderr


def test_delta_all_x_is_one():
    assert ghz.delta(ALL_X) == 1.0


def test_delta_single_x_against_two_y():
    profile = DirectionProfile(X_AXIS, Y_AXIS, Y_AXIS)
    assert ghz.delta(profile) == -1.0


def test_delta_all_z_is_zero():
    assert ghz.delta(ALL_Z) == 0.0


@given(direction_profiles)
def test_delta_is_permutation_symmetric(profile):
    reference = ghz.delta(profile)
    dirs = (profile.a, profile.b, profile.c)
    for perm in itertools.permutations(dirs):
        assert abs(ghz.delta(DirectionProfile(*perm)) - reference) <= 1e-12


@given(direction_profiles)
def test_delta_bounded_by_one(profile):
    assert abs(ghz.delta(profile)) <= 1.0 + 1e-12


def test_kz_probability_computational_basis():
    assert kz_probability(OutcomeTriple(1, 1, 1), ALL_Z) == 0.5
    assert kz_probability(OutcomeTriple(1, 1, -1), ALL_Z) == 0.0


def test_kz_probability_all_x_mixed_outcome():
    # Cross-checked against the 3-qubit oracle below and in the acceptance suite.
    assert kz_probability(OutcomeTriple(1, -1, -1), ALL_X) == pytest.approx(0.25, abs=1e-15)


def test_joint_distribution_all_z():
    dist = ghz.joint_distribution(ALL_Z)
    for outcome in OUTCOMES:
        expected = 0.5 if outcome.m == outcome.l == outcome.k else 0.0
        assert dist[outcome] == expected


def test_joint_distribution_all_x_uniform_on_even_parity():
    dist = ghz.joint_distribution(ALL_X)
    for outcome in OUTCOMES:
        expected = 0.25 if outcome.m * outcome.l * outcome.k == 1 else 0.0
        assert dist[outcome] == pytest.approx(expected, abs=1e-15)


def test_joint_distribution_two_z_one_x():
    dist = ghz.joint_distribution(DirectionProfile(Z_AXIS, Z_AXIS, X_AXIS))
    for outcome in OUTCOMES:
        expected = 0.25 if outcome.m == outcome.l else 0.0
        assert dist[outcome] == pytest.approx(expected, abs=1e-15)


@given(direction_profiles)
def test_distribution_normalized_and_nonnegative(profile):
    values = [kz_probability(o, profile) for o in OUTCOMES]
    assert abs(math.fsum(values) - 1.0) <= 1e-12
    assert min(values) >= -1e-12


@given(direction_profiles)
def test_matches_hilbert_oracle(profile):
    analytic = ghz.joint_distribution(profile)
    reference = oracle.joint_distribution_oracle(profile)
    for outcome in OUTCOMES:
        assert abs(analytic[outcome] - reference[outcome]) <= 1e-12


def test_parity_certainties():
    dist = ghz.joint_distribution(ALL_X)
    even = math.fsum(dist[o] for o in OUTCOMES if o.m * o.l * o.k == 1)
    assert abs(even - 1.0) <= 1e-12
    for profile in (
        DirectionProfile(X_AXIS, Y_AXIS, Y_AXIS),
        DirectionProfile(Y_AXIS, X_AXIS, Y_AXIS),
        DirectionProfile(Y_AXIS, Y_AXIS, X_AXIS),
    ):
        dist = ghz.joint_distribution(profile)
        odd = math.fsum(dist[o] for o in OUTCOMES if o.m * o.l * o.k == -1)
        assert abs(odd - 1.0) <= 1e-12


def test_marginal_single_all_z():
    assert ghz.marginal_single(ALL_Z, "A") == (0.5, 0.5)


def test_marginal_single_all_x():
    plus, minus = ghz.marginal_single(ALL_X, "C")
    assert abs(plus - 0.5) <= 1e-12 and abs(minus - 0.5) <= 1e-12


def test_marginal_single_random_profiles_maximally_mixed():
    rng = np.random.default_rng(5)
    for _ in range(50):
        profile = random_profile(rng)
        for player in PLAYERS:
            plus, minus = ghz.marginal_single(profile, player)
            assert abs(plus - 0.5) <= 1e-12
            assert abs(minus - 0.5) <= 1e-12


def test_marginal_single_rejects_unknown_player():
    with pytest.raises(ValueError):
        ghz.marginal_single(ALL_Z, "D")


def marginal_pair(profile, pair):
    """Pr(s1, s2) for the two players named in ``pair``, summed over the third
    player's outcome from the joint distribution."""
    first, second = PLAYERS.index(pair[0]), PLAYERS.index(pair[1])
    values = ghz.joint_distribution(profile).values
    return {
        (s1, s2): math.fsum(
            p for p, o in zip(values, OUTCOMES) if o.signs()[first] == s1 and o.signs()[second] == s2
        )
        for s1 in (1, -1)
        for s2 in (1, -1)
    }


def test_marginal_pair_all_z():
    pairs = marginal_pair(ALL_Z, "AB")
    assert pairs[(1, 1)] == 0.5
    assert pairs[(-1, -1)] == 0.5
    assert pairs[(1, -1)] == 0.0
    assert pairs[(-1, 1)] == 0.0


def test_marginal_pair_all_x_uniform():
    pairs = marginal_pair(ALL_X, "AB")
    for value in pairs.values():
        assert abs(value - 0.25) <= 1e-12


def test_marginal_pair_anticorrelated_z():
    profile = DirectionProfile(Z_AXIS, X_AXIS, Direction(0, 0, -1))
    pairs = marginal_pair(profile, "AC")
    assert abs(pairs[(1, -1)] - 0.5) <= 1e-12
    assert abs(pairs[(-1, 1)] - 0.5) <= 1e-12
    assert abs(pairs[(1, 1)]) <= 1e-12
    assert abs(pairs[(-1, -1)]) <= 1e-12


def test_marginal_pair_closed_forms_random_profiles():
    rng = np.random.default_rng(6)
    third = {"AB": lambda p: p.a.a3 * p.b.a3,
             "AC": lambda p: p.a.a3 * p.c.a3,
             "BC": lambda p: p.b.a3 * p.c.a3}
    for _ in range(50):
        profile = random_profile(rng)
        for pair in third:
            product = third[pair](profile)
            values = marginal_pair(profile, pair)
            for (s1, s2), value in values.items():
                assert abs(value - (1.0 + s1 * s2 * product) / 4.0) <= 1e-12
