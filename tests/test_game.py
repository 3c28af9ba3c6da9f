import math

import numpy as np
import pytest
from hypothesis import given

from ghzgames import game, ghz
from ghzgames.core import (
    OUTCOMES,
    PLAYERS,
    Direction,
    DirectionProfile,
    GeneralGame,
    MixedProfile,
    NotInPlaneError,
    OutcomeTriple,
    PayoffTriple,
    SymmetricGame,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    symmetric_to_general,
)
from support import (
    PD,
    direction_profiles,
    quantum_payoffs_inplane,
    random_inplane_profile,
    random_profile,
    random_symmetric_game,
    zero_correlation_inplane_profile,
)

PD_TABLE = symmetric_to_general(PD)
ALL_X = DirectionProfile(X_AXIS, X_AXIS, X_AXIS)
ALL_Z = DirectionProfile(Z_AXIS, Z_AXIS, Z_AXIS)


def test_classical_payoffs_pure_cooperation():
    assert game.classical_payoffs(PD_TABLE, MixedProfile(1, 1, 1)) == PayoffTriple(7, 7, 7)


def test_classical_payoffs_pure_defection():
    assert game.classical_payoffs(PD_TABLE, MixedProfile(0, 0, 0)) == PayoffTriple(1, 1, 1)


def test_classical_payoffs_uniform_mixing():
    # Uniform mixing averages all eight rows: 33/8 for every player.
    payoffs = game.classical_payoffs(PD_TABLE, MixedProfile(0.5, 0.5, 0.5))
    for value in (payoffs.pi_a, payoffs.pi_b, payoffs.pi_c):
        assert value == pytest.approx(33 / 8, abs=1e-15)


def test_quantum_payoffs_all_z():
    payoffs = game.quantum_payoffs(PD_TABLE, ALL_Z)
    assert payoffs == PayoffTriple(4, 4, 4)


def test_quantum_payoffs_all_x():
    payoffs = game.quantum_payoffs(PD_TABLE, ALL_X)
    for value in (payoffs.pi_a, payoffs.pi_b, payoffs.pi_c):
        assert value == pytest.approx(17 / 4, abs=1e-15)


def test_quantum_payoffs_uniform_profile():
    payoffs = game.quantum_payoffs(PD_TABLE, DirectionProfile(Z_AXIS, X_AXIS, X_AXIS))
    for value in (payoffs.pi_a, payoffs.pi_b, payoffs.pi_c):
        assert value == pytest.approx(33 / 8, abs=1e-15)


# expected_payoffs ------------------------------------------------------------

def _random_table(rng: np.random.Generator) -> GeneralGame:
    return GeneralGame({o: PayoffTriple(*rng.uniform(-10, 10, size=3)) for o in OUTCOMES})


@pytest.mark.parametrize("outcome", OUTCOMES, ids=lambda o: o.label())
def test_expected_payoffs_point_mass_returns_the_row(outcome):
    table = _random_table(np.random.default_rng(26))
    weights = [1.0 if o == outcome else 0.0 for o in OUTCOMES]
    assert game.expected_payoffs(table, weights) == table.payoff(outcome)


def test_quantum_payoffs_are_expected_payoffs_over_the_ghz_distribution():
    rng = np.random.default_rng(27)
    for _ in range(200):
        table = _random_table(rng)
        profile = random_profile(rng)
        expected = game.expected_payoffs(table, ghz.joint_distribution(profile).values)
        assert game.quantum_payoffs(table, profile) == expected


def test_expected_payoffs_rejects_a_distribution_in_place_of_its_values():
    # Weights are dist.values; the distribution itself is not iterable.
    dist = ghz.joint_distribution(DirectionProfile(X_AXIS, X_AXIS, X_AXIS))
    with pytest.raises(TypeError, match="'JointDistribution' object is not iterable"):
        game.expected_payoffs(PD_TABLE, dist)


def test_classical_payoffs_are_expected_payoffs_over_product_weights():
    rng = np.random.default_rng(28)
    for _ in range(200):
        table = _random_table(rng)
        mixed = MixedProfile(*rng.uniform(0, 1, size=3))
        weights = [game.product_weight(o, mixed) for o in OUTCOMES]
        assert game.classical_payoffs(table, mixed) == game.expected_payoffs(table, weights)


def test_inplane_payoffs_all_x():
    payoffs = quantum_payoffs_inplane(PD, ALL_X)
    for value in (payoffs.pi_a, payoffs.pi_b, payoffs.pi_c):
        assert value == pytest.approx(17 / 4, abs=1e-15)


def test_inplane_payoffs_x_y_y():
    payoffs = quantum_payoffs_inplane(PD, DirectionProfile(X_AXIS, Y_AXIS, Y_AXIS))
    for value in (payoffs.pi_a, payoffs.pi_b, payoffs.pi_c):
        assert value == pytest.approx(4.0, abs=1e-15)


def test_inplane_payoffs_reject_out_of_plane():
    with pytest.raises(NotInPlaneError):
        quantum_payoffs_inplane(PD, ALL_Z)


def test_inplane_matches_general_evaluation():
    rng = np.random.default_rng(21)
    for _ in range(100):
        g = random_symmetric_game(rng)
        profile = random_inplane_profile(rng)
        via_plane = quantum_payoffs_inplane(g, profile)
        via_general = game.quantum_payoffs(symmetric_to_general(g), profile)
        assert abs(via_plane.pi_a - via_general.pi_a) <= 1e-12
        assert abs(via_plane.pi_b - via_general.pi_b) <= 1e-12
        assert abs(via_plane.pi_c - via_general.pi_c) <= 1e-12


def test_factorize_consistent_profile():
    report = game.factorize(DirectionProfile(Z_AXIS, X_AXIS, X_AXIS))
    assert report.consistent
    assert report.solution == MixedProfile(0.5, 0.5, 0.5)
    assert report.violated_equations == ()
    assert all(r <= 1e-9 for r in report.residuals.values())


def test_factorize_all_z_inconsistent():
    report = game.factorize(ALL_Z)
    assert not report.consistent
    assert report.solution is None
    violated = {eq for eq, _ in report.violated_equations}
    assert {"E1", "E8"} <= violated
    # The two certain outcomes miss the product value 1/8 by 3/8.
    assert report.residuals["E1"] == pytest.approx(3 / 8, abs=1e-15)
    assert report.residuals["E8"] == pytest.approx(3 / 8, abs=1e-15)


def test_factorize_all_x_inconsistent():
    report = game.factorize(ALL_X)
    assert not report.consistent
    assert ("E1", report.residuals["E1"]) in report.violated_equations
    assert report.residuals["E1"] == pytest.approx(1 / 8, abs=1e-15)


def test_factorize_solution_is_always_half_half_half():
    rng = np.random.default_rng(22)
    for _ in range(200):
        report = game.factorize(random_profile(rng))
        if report.consistent:
            assert report.solution == MixedProfile(0.5, 0.5, 0.5)
        else:
            assert report.solution is None


def test_factorize_consistent_on_constructed_zero_correlation_profiles():
    rng = np.random.default_rng(23)
    for _ in range(100):
        profile = zero_correlation_inplane_profile(rng)
        report = game.factorize(profile)
        assert report.consistent
        assert report.solution == MixedProfile(0.5, 0.5, 0.5)


def test_consistent_factorization_reproduces_payoffs():
    rng = np.random.default_rng(24)
    for _ in range(50):
        g = symmetric_to_general(random_symmetric_game(rng))
        profile = zero_correlation_inplane_profile(rng)
        report = game.factorize(profile)
        assert report.consistent
        quantum = game.quantum_payoffs(g, profile)
        classical = game.classical_payoffs(g, report.solution)
        assert abs(quantum.pi_a - classical.pi_a) <= 1e-12
        assert abs(quantum.pi_b - classical.pi_b) <= 1e-12
        assert abs(quantum.pi_c - classical.pi_c) <= 1e-12


def test_classical_pure_ne_pd_unique_all_defect():
    found = game.classical_pure_ne(PD_TABLE)
    assert len(found) == 1
    (eq,) = found
    assert eq.outcome == OutcomeTriple(-1, -1, -1)
    assert eq.payoffs == PayoffTriple(1, 1, 1)
    assert eq.strict


def test_classical_pure_ne_zero_game_all_weak():
    found = game.classical_pure_ne(symmetric_to_general(SymmetricGame(0, 0, 0, 0, 0, 0)))
    assert len(found) == 8
    assert all(not eq.strict for eq in found)


def test_classical_pure_ne_coordination_game():
    coordination = symmetric_to_general(SymmetricGame(1, 0, 0, 0, 0, 0))
    found = game.classical_pure_ne(coordination)
    outcomes = {eq.outcome for eq in found}
    assert OutcomeTriple(1, 1, 1) in outcomes
    all_cooperate = next(eq for eq in found if eq.outcome == OutcomeTriple(1, 1, 1))
    assert all_cooperate.strict


def test_symmetric_payoff_identity():
    rng = np.random.default_rng(25)
    games = [PD] + [random_symmetric_game(rng) for _ in range(4)]
    for g in games:
        table = symmetric_to_general(g)
        for _ in range(25):
            x, y, z = rng.uniform(0.0, 1.0, size=3)
            reference = game.classical_payoffs(table, MixedProfile(x, y, z)).pi_a
            equivalents = (
                game.classical_payoffs(table, MixedProfile(x, z, y)).pi_a,
                game.classical_payoffs(table, MixedProfile(y, x, z)).pi_b,
                game.classical_payoffs(table, MixedProfile(z, x, y)).pi_b,
                game.classical_payoffs(table, MixedProfile(y, z, x)).pi_c,
                game.classical_payoffs(table, MixedProfile(z, y, x)).pi_c,
            )
            for value in equivalents:
                assert abs(value - reference) <= 1e-12


def test_classical_payoffs_multilinear():
    # Affine in each mixing probability: the second difference along each
    # coordinate vanishes.
    rng = np.random.default_rng(26)
    for _ in range(50):
        table = symmetric_to_general(random_symmetric_game(rng))
        base = rng.uniform(0.0, 1.0, size=3)
        for axis in range(3):
            lo, mid, hi = base.copy(), base.copy(), base.copy()
            lo[axis], mid[axis], hi[axis] = 0.0, 0.5, 1.0
            f = [game.classical_payoffs(table, MixedProfile(*p)).pi_a for p in (lo, mid, hi)]
            assert abs(f[0] - 2.0 * f[1] + f[2]) <= 1e-9


def _affine_fit_residual(table, profile, player):
    """Fit payoff = c0 + g . d through four probe directions, then measure the
    worst prediction error on random unit directions."""
    probes = [X_AXIS, Y_AXIS, Z_AXIS, Direction(0, 0, -1)]
    rows = []
    values = []
    for probe in probes:
        replaced = {
            "A": DirectionProfile(probe, profile.b, profile.c),
            "B": DirectionProfile(profile.a, probe, profile.c),
            "C": DirectionProfile(profile.a, profile.b, probe),
        }[player]
        rows.append([1.0, probe.a1, probe.a2, probe.a3])
        values.append(game.quantum_payoffs(table, replaced).for_player(player))
    coeffs = np.linalg.solve(np.array(rows), np.array(values))
    rng = np.random.default_rng(27)
    worst = 0.0
    for _ in range(20):
        d = random_profile(rng).a
        replaced = {
            "A": DirectionProfile(d, profile.b, profile.c),
            "B": DirectionProfile(profile.a, d, profile.c),
            "C": DirectionProfile(profile.a, profile.b, d),
        }[player]
        predicted = coeffs[0] + coeffs[1] * d.a1 + coeffs[2] * d.a2 + coeffs[3] * d.a3
        actual = game.quantum_payoffs(table, replaced).for_player(player)
        worst = max(worst, abs(predicted - actual))
    return worst


def test_quantum_payoffs_affine_in_each_direction():
    # Direction inputs are unit vectors, so affinity is checked by fitting an
    # affine model through four probes and verifying it predicts the payoff
    # exactly elsewhere (equivalent to vanishing second differences).
    rng = np.random.default_rng(28)
    for _ in range(10):
        table = symmetric_to_general(random_symmetric_game(rng))
        profile = random_profile(rng)
        for player in PLAYERS:
            assert _affine_fit_residual(table, profile, player) <= 1e-9


@given(direction_profiles)
def test_quantum_payoffs_equal_distribution_expectation(profile):
    dist = ghz.joint_distribution(profile)
    payoffs = game.quantum_payoffs(PD_TABLE, profile)
    expected = math.fsum(dist[o] * PD_TABLE.payoff(o).pi_a for o in OUTCOMES)
    assert abs(payoffs.pi_a - expected) <= 1e-12
