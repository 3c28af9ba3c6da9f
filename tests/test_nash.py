import itertools
import math
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from ghzgames import core, game, nash
from ghzgames.core import (
    Direction,
    DirectionProfile,
    NotInPlaneError,
    SymmetricGame,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    symmetric_to_general,
)
from support import (
    DEGENERATE,
    PD,
    deviation_payoffs,
    exact_verdict,
    fibonacci_sphere,
    random_direction,
    random_inplane_profile,
    random_profile,
    random_symmetric_game,
)

MINUS_Z = Direction(0, 0, -1)
ALL_X = DirectionProfile(X_AXIS, X_AXIS, X_AXIS)
ALL_Z = DirectionProfile(Z_AXIS, Z_AXIS, Z_AXIS)
ZZ_MINUS_Z = DirectionProfile(Z_AXIS, Z_AXIS, MINUS_Z)
#: gamma1 = 12 > 0 and gamma2 = 20: every start runs to one of two pole profiles.
TWO_POLE = SymmetricGame(6, -4, -7, 4, -1, 6)
#: A rational point of the dilemma's strict continuum: c's azimuth is -(phi_a + phi_b).
CONTINUUM_RATIONAL = (
    (Fraction(5, 13), Fraction(12, 13), 0),
    (Fraction(3, 5), Fraction(-4, 5), 0),
    (Fraction(63, 65), Fraction(-16, 65), 0),
)
CONTINUUM = DirectionProfile(*(Direction(*map(float, d)) for d in CONTINUUM_RATIONAL))
#: Positive factors for the six constants, by name; none may change a verdict.
SCALES = {
    "0.25": 0.25, "3": 3.0, "1e6": 1e6, "1e-9": 1e-9, "3.7e11": 3.7e11,
    "2^-60": 2.0**-60, "2^40": 2.0**40, "2^60": 2.0**60,
}

GRID = fibonacci_sphere(10_000)


def _angle_of(d, e) -> float:
    """The angle between two unit vectors given as triples, by its definition
    from the chord; nash compares chords only."""
    chord = math.hypot(d[0] - e[0], d[1] - e[1], d[2] - e[2])
    return 2.0 * math.asin(min(1.0, chord / 2.0))


def _angle(d: Direction, e: Direction) -> float:
    return _angle_of(d.components(), e.components())


def _scaled(g: SymmetricGame, scale: float) -> SymmetricGame:
    return SymmetricGame(*(scale * v for v in g.constants()))


def _triples(profile: DirectionProfile | None):
    """The profile as the search handles it: a list of three component triples."""
    return None if profile is None else [d.components() for d in (profile.a, profile.b, profile.c)]


# gammas ----------------------------------------------------------------------

def test_gammas_pd():
    assert nash.gammas(PD) == nash.GammaPair(-1.0, 1.0)


def test_gammas_zero_game():
    assert nash.gammas(SymmetricGame(0, 0, 0, 0, 0, 0)) == nash.GammaPair(0.0, 0.0)


def test_gammas_degenerate_fixture():
    assert nash.gammas(DEGENERATE) == nash.GammaPair(2.0, 0.0)


@pytest.mark.parametrize("scale", [0.25, 2.0])
def test_gammas_scale_linearly(scale):
    scaled = SymmetricGame(*(scale * v for v in PD.constants()))
    gp = nash.gammas(scaled)
    base = nash.gammas(PD)
    assert gp.gamma1 == scale * base.gamma1
    assert gp.gamma2 == scale * base.gamma2


# _payoff_gradient -----------------------------------------------------------

def _unit_gradients(profile: DirectionProfile) -> tuple[tuple[float, float, float], ...]:
    """Each player's gradient with gamma1 = gamma2 = 1, in player order."""
    unit = nash.GammaPair(1.0, 1.0)
    return tuple(
        nash._payoff_gradient(unit, *nash._split(profile, player)[1:]) for player in "ABC"
    )


def test_payoff_gradient_all_x():
    assert _unit_gradients(ALL_X) == ((1.0, 0.0, 0.0),) * 3


def test_payoff_gradient_all_z():
    assert _unit_gradients(ALL_Z) == ((0.0, 0.0, 2.0),) * 3


def test_payoff_gradient_mixed_axis_profile():
    assert _unit_gradients(ZZ_MINUS_Z) == ((0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 2.0))


# payoff_diff -----------------------------------------------------------------

def test_payoff_diff_all_x_deviation_to_z():
    assert nash.payoff_diff(PD, ALL_X, "A", Z_AXIS) == pytest.approx(1 / 8, abs=1e-15)


def test_payoff_diff_null_deviation():
    assert nash.payoff_diff(PD, ALL_X, "A", X_AXIS) == 0.0


def test_payoff_diff_all_z_deviation_to_minus_z():
    assert nash.payoff_diff(PD, ALL_Z, "A", MINUS_Z) == pytest.approx(-0.5, abs=1e-15)


def test_payoff_diff_matches_direct_payoff_difference():
    rng = np.random.default_rng(31)
    for _ in range(300):
        g = random_symmetric_game(rng)
        table = symmetric_to_general(g)
        starred = random_profile(rng)
        player = ("A", "B", "C")[rng.integers(3)]
        alt = random_direction(rng)
        deviated = {
            "A": DirectionProfile(alt, starred.b, starred.c),
            "B": DirectionProfile(starred.a, alt, starred.c),
            "C": DirectionProfile(starred.a, starred.b, alt),
        }[player]
        direct = (
            game.quantum_payoffs(table, starred).for_player(player)
            - game.quantum_payoffs(table, deviated).for_player(player)
        )
        assert abs(nash.payoff_diff(g, starred, player, alt) - direct) <= 1e-12


#: gamma1 = gamma2 = 2e308 in payoff units, beyond the float range.
BIG = SymmetricGame(1e308, -1e308, 1e308, -1e308, 1e308, -1e308)


def test_payoff_diff_near_the_float_maximum_is_finite():
    assert nash.payoff_diff(BIG, ALL_X, "A", Z_AXIS) == 2.5e307
    sixty_degrees = Direction(0.5, math.sqrt(3.0) / 2.0, 0.0)
    margins = nash.case_a_constraints(BIG, ALL_X, DirectionProfile(sixty_degrees, X_AXIS, X_AXIS))
    assert margins[0] == pytest.approx(1e308, rel=1e-15)
    assert margins[1:] == (0.0, 0.0)


def test_payoff_diff_beyond_the_float_range_saturates():
    # gamma1 = 4 * M, so A's loss is +-2 * M.
    m = sys.float_info.max
    g = SymmetricGame(m, -m, 0, -m, 0, m)
    assert nash.payoff_diff(g, ALL_Z, "A", MINUS_Z) == math.inf
    assert nash.payoff_diff(g, DirectionProfile(MINUS_Z, Z_AXIS, Z_AXIS), "A", Z_AXIS) == -math.inf


@pytest.mark.parametrize("k", [-60, 40, 60])
def test_payoff_diff_keeps_its_bits_under_power_of_two_scaling(k):
    rng = np.random.default_rng(36)
    for _ in range(100):
        g = random_symmetric_game(rng)
        scaled = SymmetricGame(*(math.ldexp(v, k) for v in g.constants()))
        starred, alt = random_profile(rng), random_direction(rng)
        for player in ("A", "B", "C"):
            expected = math.ldexp(nash.payoff_diff(g, starred, player, alt), k)
            assert repr(nash.payoff_diff(scaled, starred, player, alt)) == repr(expected)
        starred, alt = random_inplane_profile(rng), random_inplane_profile(rng)
        expected = tuple(math.ldexp(v, k) for v in nash.case_a_constraints(g, starred, alt))
        assert repr(nash.case_a_constraints(scaled, starred, alt)) == repr(expected)


# best_response ---------------------------------------------------------------

def test_best_response_x_opponents():
    assert nash.best_response(PD, (X_AXIS, X_AXIS), "A") == X_AXIS


def test_best_response_z_opponents():
    assert nash.best_response(PD, (Z_AXIS, Z_AXIS), "A") == MINUS_Z


def test_best_response_indifferent():
    assert nash.best_response(PD, (Z_AXIS, MINUS_Z), "A") is None


def test_best_response_rejects_unknown_player():
    with pytest.raises(ValueError):
        nash.best_response(PD, (Z_AXIS, Z_AXIS), "X")


def test_best_response_beats_grid():
    rng = np.random.default_rng(32)
    for _ in range(100):
        g = random_symmetric_game(rng)
        profile = random_profile(rng)
        player = ("A", "B", "C")[rng.integers(3)]
        others = {
            "A": (profile.b, profile.c),
            "B": (profile.a, profile.c),
            "C": (profile.a, profile.b),
        }[player]
        table = symmetric_to_general(g)
        grid_payoffs = deviation_payoffs(table, profile, player, GRID)
        response = nash.best_response(g, others, player)
        if response is None:
            assert grid_payoffs.max() - grid_payoffs.min() <= 1e-9
        else:
            at_response = deviation_payoffs(
                table, profile, player, np.array([response.components()])
            )[0]
            assert at_response >= grid_payoffs.max() - 1e-9


# verify_ne -------------------------------------------------------------------

def _others(profile: DirectionProfile, player: str) -> tuple[Direction, Direction]:
    return {"A": (profile.b, profile.c), "B": (profile.a, profile.c), "C": (profile.a, profile.b)}[player]


#: Just off -z: against (z, this), A's gradient norm is about 1e-13 in the
#: units of the scaled pair, and 2**40 times that in the dilemma x 2**40.
NEAR_MINUS_Z = Direction(math.sqrt(1.0 - (1.0 - 1e-13) ** 2), 0.0, -(1.0 - 1e-13))


def test_verify_ne_reports_the_best_response_of_every_player():
    rng = np.random.default_rng(34)
    between_tolerances = DirectionProfile(X_AXIS, Z_AXIS, NEAR_MINUS_Z)
    cases = [(PD, ZZ_MINUS_Z), (SymmetricGame(0, 0, 0, 0, 0, 0), random_profile(rng))]
    cases += [(random_symmetric_game(rng), random_profile(rng)) for _ in range(100)]
    cases += [(_scaled(PD, 2.0**40), between_tolerances)]
    for g, profile in cases:
        report = nash.verify_ne(g, profile)
        for player in ("A", "B", "C"):
            assert report.best_responses[player] == nash.best_response(g, _others(profile, player), player)
    assert nash.verify_ne(_scaled(PD, 2.0**40), between_tolerances).best_responses["A"] is None


def test_verify_all_x_strict():
    report = nash.verify_ne(PD, ALL_X)
    assert report.verdict == nash.STRICT
    assert report.witness is None
    assert report.best_responses["A"] == X_AXIS


def test_verify_all_z_not_ne_with_witness():
    report = nash.verify_ne(PD, ALL_Z)
    assert report.verdict == nash.NOT_NE
    assert report.witness is not None
    assert report.witness.player == "A"
    assert report.witness.direction == MINUS_Z
    assert report.witness.gain == pytest.approx(0.5, abs=1e-15)


def test_verify_degenerate_profile_weak():
    report = nash.verify_ne(PD, ZZ_MINUS_Z)
    assert report.verdict == nash.WEAK
    assert report.witness is None
    assert report.best_responses["A"] is None
    assert report.best_responses["B"] is None
    assert report.best_responses["C"] == MINUS_Z


def _grid_scan_max_gain(g: SymmetricGame, profile: DirectionProfile) -> float:
    table = symmetric_to_general(g)
    base = game.quantum_payoffs(table, profile)
    worst = -math.inf
    for player in ("A", "B", "C"):
        gains = deviation_payoffs(table, profile, player, GRID) - base.for_player(player)
        worst = max(worst, float(gains.max()))
    return worst


def test_verify_ne_sound_against_grid_scan():
    rng = np.random.default_rng(33)
    cases = [(PD, ALL_X), (PD, ALL_Z), (PD, ZZ_MINUS_Z)]
    cases += [(random_symmetric_game(rng), random_profile(rng)) for _ in range(20)]
    for g, profile in cases:
        report = nash.verify_ne(g, profile)
        if report.verdict in (nash.STRICT, nash.WEAK):
            assert _grid_scan_max_gain(g, profile) <= 1e-9
        else:
            assert report.witness.gain > 1e-12
            table = symmetric_to_general(g)
            deviated = {
                "A": DirectionProfile(report.witness.direction, profile.b, profile.c),
                "B": DirectionProfile(profile.a, report.witness.direction, profile.c),
                "C": DirectionProfile(profile.a, profile.b, report.witness.direction),
            }[report.witness.player]
            direct_gain = (
                game.quantum_payoffs(table, deviated).for_player(report.witness.player)
                - game.quantum_payoffs(table, profile).for_player(report.witness.player)
            )
            assert direct_gain == pytest.approx(report.witness.gain, abs=1e-12)


def test_verdicts_invariant_under_positive_scaling():
    for scale in SCALES.values():
        for profile in (ALL_X, ALL_Z, ZZ_MINUS_Z, CONTINUUM):
            assert nash.verify_ne(_scaled(PD, scale), profile).verdict == nash.verify_ne(PD, profile).verdict


#: Rational profiles, exact for the oracle; their floats are the module's profiles.
_RATIONAL_PROFILES = {
    "all_x": ((1, 0, 0),) * 3,
    "all_z": ((0, 0, 1),) * 3,
    "z_z_minus_z": ((0, 0, 1), (0, 0, 1), (0, 0, -1)),
    "continuum": CONTINUUM_RATIONAL,
}


def _float_profile(rational) -> DirectionProfile:
    return DirectionProfile(*(Direction(*map(float, d)) for d in rational))


@pytest.mark.parametrize("scale", ["1", *SCALES])
@pytest.mark.parametrize("g", [PD, TWO_POLE], ids=["PD", "TWO_POLE"])
@pytest.mark.parametrize("name", sorted(_RATIONAL_PROFILES))
def test_verify_ne_agrees_with_the_exact_verdict(name, g, scale):
    rational = _RATIONAL_PROFILES[name]
    scaled = _scaled(g, SCALES.get(scale, 1.0))
    assert nash.verify_ne(scaled, _float_profile(rational)).verdict == exact_verdict(scaled, rational)


def test_exact_verdicts_of_the_dilemma_landmarks():
    verdicts = {name: exact_verdict(PD, rational) for name, rational in _RATIONAL_PROFILES.items()}
    assert verdicts == {"all_x": nash.STRICT, "all_z": nash.NOT_NE, "z_z_minus_z": nash.WEAK, "continuum": nash.STRICT}


#: The symmetry tests' profiles: the landmarks, and one with three unlike
#: players off the plane.
_SYMMETRY_PROFILES = {
    **_RATIONAL_PROFILES,
    "off_plane": (
        (Fraction(3, 5), 0, Fraction(4, 5)),
        (0, Fraction(5, 13), Fraction(12, 13)),
        (Fraction(2, 3), Fraction(-2, 3), Fraction(1, 3)),
    ),
}


def _mirrored(d: Direction | None) -> Direction | None:
    return None if d is None else Direction(d.a1, d.a2, -d.a3)


@pytest.mark.parametrize("g", [PD, TWO_POLE], ids=["PD", "TWO_POLE"])
@pytest.mark.parametrize("name", sorted(_SYMMETRY_PROFILES))
def test_permuting_the_players_permutes_the_best_responses(name, g):
    # The game is symmetric, and each gradient is symmetric in the two
    # opponents, so a permuted profile has the permuted best responses.
    rational = _SYMMETRY_PROFILES[name]
    report = nash.verify_ne(g, _float_profile(rational))
    for order in itertools.permutations(range(3)):
        moved = [rational[i] for i in order]
        moved_report = nash.verify_ne(g, _float_profile(moved))
        assert moved_report.verdict == report.verdict == exact_verdict(g, moved)
        for player, i in zip("ABC", order):
            assert repr(moved_report.best_responses[player]) == repr(report.best_responses["ABC"[i]])
        if report.witness is not None:
            assert moved_report.witness.gain == report.witness.gain


@pytest.mark.parametrize("g", [PD, TWO_POLE], ids=["PD", "TWO_POLE"])
@pytest.mark.parametrize("name", sorted(_SYMMETRY_PROFILES))
def test_negating_every_third_component_mirrors_the_best_responses(name, g):
    # Each gradient's third component changes sign and the other two stay.
    rational = _SYMMETRY_PROFILES[name]
    profile = _float_profile(rational)
    report = nash.verify_ne(g, profile)
    flipped = [(x, y, -z) for x, y, z in rational]
    flipped_report = nash.verify_ne(g, DirectionProfile(*map(_mirrored, (profile.a, profile.b, profile.c))))
    assert flipped_report.verdict == report.verdict == exact_verdict(g, flipped)
    mirrored = {player: _mirrored(d) for player, d in report.best_responses.items()}
    assert repr(flipped_report.best_responses) == repr(mirrored)
    if report.witness is not None:
        assert flipped_report.witness == replace(report.witness, direction=_mirrored(report.witness.direction))


def test_a_witness_gain_beyond_the_float_range_is_inf():
    # gamma1 = 4 * M overflows in payoff units, and so does A's gain, 2 * M.
    m = sys.float_info.max
    report = nash.verify_ne(SymmetricGame(m, -m, 0, -m, 0, m), DirectionProfile(MINUS_Z, Z_AXIS, Z_AXIS))
    assert report.verdict == nash.NOT_NE
    assert (report.witness.player, report.witness.direction, report.witness.gain) == ("A", Z_AXIS, math.inf)


def test_constants_at_the_float_maximum_give_weak_verdicts():
    # gamma1 = gamma2 = 0, but 2 * delta overflows in payoff units.
    flat = SymmetricGame(*[sys.float_info.max] * 6)
    assert nash.verify_ne(flat, ALL_X).verdict == nash.WEAK
    result = nash.find_ne(flat, 16, 0)
    assert len(result.equilibria) == 16
    assert all(eq.report.verdict == nash.WEAK for eq in result.equilibria)


# find_ne ---------------------------------------------------------------------

def test_find_ne_is_deterministic():
    first = nash.find_ne(PD, 32, 7)
    second = nash.find_ne(PD, 32, 7)
    assert first == second


def test_find_ne_different_rng_seed_changes_profiles():
    assert nash.find_ne(PD, 8, 0) != nash.find_ne(PD, 8, 1)


def test_find_ne_rejects_zero_seeds():
    with pytest.raises(ValueError):
        nash.find_ne(PD, 0, 0)


def test_find_ne_pd_converges_to_verified_fixed_points():
    result = nash.find_ne(PD, 64, 0)
    assert result.non_converged == ()
    assert result.equilibria
    seen = []
    for eq in result.equilibria:
        assert eq.report.verdict in (nash.STRICT, nash.WEAK)
        p = eq.profile
        for player, own, others in (
            ("A", p.a, (p.b, p.c)),
            ("B", p.b, (p.a, p.c)),
            ("C", p.c, (p.a, p.b)),
        ):
            response = nash.best_response(PD, others, player)
            if response is not None:
                assert _angle(own, response) <= 1e-8
        seen.extend(eq.seeds)
    assert sorted(seen) == list(range(64))


@pytest.mark.parametrize("rng_seed", range(4))
def test_find_ne_pd_fixed_points_lie_on_the_continuum_surface(rng_seed):
    # For the dilemma every fixed point has in-plane azimuths summing to
    # 0 (mod 2*pi) and third components on za + zb + zc + za*zb*zc = 0.
    result = nash.find_ne(PD, 64, rng_seed)
    assert result.equilibria and not result.non_converged
    for eq in result.equilibria:
        a, b, c = eq.profile.a, eq.profile.b, eq.profile.c
        assert min(math.hypot(d.a1, d.a2) for d in (a, b, c)) > 1e-3
        azimuths = sum(math.atan2(d.a2, d.a1) for d in (a, b, c)) % (2.0 * math.pi)
        assert min(azimuths, 2.0 * math.pi - azimuths) <= 1e-8
        assert abs(a.a3 + b.a3 + c.a3 + a.a3 * b.a3 * c.a3) <= 1e-8


def test_find_ne_deduplicates_attracting_fixed_points():
    # gamma2 = 0 and gamma1 > 0 drive every start to all-(+z) or all-(-z).
    result = nash.find_ne(DEGENERATE, 64, 5)
    assert result.non_converged == ()
    assert len(result.equilibria) == 2
    profiles = {
        tuple(round(v) for d in (eq.profile.a, eq.profile.b, eq.profile.c) for v in d.components())
        for eq in result.equilibria
    }
    assert profiles == {
        (0, 0, 1, 0, 0, 1, 0, 0, 1),
        (0, 0, -1, 0, 0, -1, 0, 0, -1),
    }
    assert sum(len(eq.seeds) for eq in result.equilibria) == 64


def test_find_ne_zero_game_every_start_is_weak():
    result = nash.find_ne(SymmetricGame(0, 0, 0, 0, 0, 0), 16, 3)
    assert result.non_converged == ()
    assert len(result.equilibria) == 16
    assert all(eq.report.verdict == nash.WEAK for eq in result.equilibria)


# find_ne dedup against the pairwise reference ---------------------------------

def _pairwise_clusters(fixed_points):
    """Reference dedup: compare each fixed point with every earlier cluster."""
    clusters = []
    failed = []
    for seed_index, fixed in enumerate(fixed_points):
        if fixed is None:
            failed.append(seed_index)
            continue
        for known, hits in clusters:
            if max(map(_angle_of, _triples(known), _triples(fixed))) < nash.DEDUP_TOL_RAD:
                hits.append(seed_index)
                break
        else:
            clusters.append((fixed, [seed_index]))
    return [(profile, tuple(hits)) for profile, hits in clusters], tuple(failed)


def _clusters(result):
    return [(eq.profile, eq.seeds) for eq in result.equilibria], result.non_converged


def _find_ne_clusters(monkeypatch, fixed_points):
    """find_ne's clusters when the dynamics return ``fixed_points`` in seed order."""
    monkeypatch.setattr(nash, "_fixed_points", lambda gp, seeds, rng: map(_triples, fixed_points))
    return _clusters(nash.find_ne(PD, len(fixed_points), 0))


def _nudge(d: Direction, angle: float, rng: np.random.Generator) -> Direction:
    """d rotated by ``angle`` radians towards a random tangent direction."""
    own = np.array(d.components())
    tangent = rng.normal(size=3)
    tangent -= tangent.dot(own) * own
    tangent /= np.linalg.norm(tangent)
    return Direction(*(math.cos(angle) * own + math.sin(angle) * tangent))


def _near_y(a1: float) -> Direction:
    """The in-plane direction with first component ``a1`` and positive second."""
    return Direction(a1, math.sqrt(1.0 - a1 * a1), 0.0)


def _jittered_points(rng: np.random.Generator):
    bases = [random_profile(rng) for _ in range(6)]
    points = []
    for _ in range(200):
        base = bases[rng.integers(len(bases))]
        angle = math.exp(rng.uniform(math.log(1e-7), math.log(2e-6)))
        directions = [base.a, base.b, base.c]
        moved = rng.integers(3)
        directions[moved] = _nudge(directions[moved], angle, rng)
        points.append(None if rng.random() < 0.05 else DirectionProfile(*directions))
    return points


def _shared_a1_points(rng: np.random.Generator):
    # Pole-like profiles: A plays +-z, so every a.a1 is exactly 0.
    bases = [
        DirectionProfile(Z_AXIS if k % 2 else MINUS_Z, random_direction(rng), random_direction(rng))
        for k in range(40)
    ]
    picks = rng.integers(len(bases), size=120)
    return bases + [
        DirectionProfile(bases[k].a, _nudge(bases[k].b, 5e-7, rng), bases[k].c) for k in picks
    ]


def _cell_edge_points(rng: np.random.Generator):
    cell = 2.0 * nash.DEDUP_TOL_RAD
    b, c = random_direction(rng), random_direction(rng)
    points = []
    for edge in (-2 * cell, -cell, 0.0, cell, 5 * cell):
        for below, above in ((0.3e-6, 0.3e-6), (0.6e-6, 0.6e-6), (0.1e-6, 0.85e-6)):
            points.append(DirectionProfile(_near_y(edge - below), b, c))
            points.append(DirectionProfile(_near_y(edge + above), b, c))
        points.append(DirectionProfile(_near_y(edge), b, c))
    return points


@pytest.mark.parametrize("make_points", [_jittered_points, _shared_a1_points, _cell_edge_points])
@pytest.mark.parametrize("rng_seed", range(3))
def test_find_ne_dedup_matches_pairwise_reference(monkeypatch, make_points, rng_seed):
    points = make_points(np.random.default_rng(rng_seed))
    assert _find_ne_clusters(monkeypatch, points) == _pairwise_clusters(points)


def test_find_ne_dedup_joins_the_earliest_of_two_clusters(monkeypatch):
    # The earlier cluster sits one cell above the later one; the last point
    # is within tolerance of both.
    points = [DirectionProfile(_near_y(a1), Y_AXIS, Z_AXIS) for a1 in (2.5e-6, 1.0e-6, 1.75e-6)]
    clusters, _ = _find_ne_clusters(monkeypatch, points)
    assert [seeds for _, seeds in clusters] == [(0, 2), (1,)]


def test_find_ne_dedup_matches_pairwise_reference_on_real_fixed_points(monkeypatch):
    recorded = []
    fixed_points = nash._fixed_points

    def recording(gp, seeds, rng):
        for fixed in fixed_points(gp, seeds, rng):
            recorded.append(None if fixed is None else DirectionProfile(*(Direction(*d) for d in fixed)))
            yield fixed

    monkeypatch.setattr(nash, "_fixed_points", recording)
    result = nash.find_ne(PD, 512, 11)
    assert len(recorded) == 512
    assert _clusters(result) == _pairwise_clusters(recorded)


def _count_distance_calls(monkeypatch, game, seeds):
    calls = 0
    distance = nash._profile_distance

    def counting(p, q):
        nonlocal calls
        calls += 1
        return distance(p, q)

    monkeypatch.setattr(nash, "_profile_distance", counting)
    nash.find_ne(game, seeds, 0)
    return calls


def test_find_ne_dedup_work_is_near_linear_on_the_continuum(monkeypatch):
    # Every dilemma seed is its own fixed point; a pairwise scan makes
    # 1024 * 1023 / 2 comparisons here.
    assert _count_distance_calls(monkeypatch, PD, 1024) <= 1024


def test_find_ne_dedup_work_on_two_pole_game(monkeypatch):
    # Every seed reaches one of two pole profiles, so each seed after the
    # first is compared with the first cluster, and the seeds not in it
    # with the second as well.
    assert _count_distance_calls(monkeypatch, TWO_POLE, 2048) == 3071


def test_find_ne_looks_up_best_response_through_the_module(monkeypatch):
    # Each dilemma seed converges in two sweeps of three best responses.
    # Below the hand-off every one of them goes through nash._respond; at it,
    # the batched sweeps make none.  Each cluster's verdict then makes three.
    calls = 0
    respond = nash._respond

    def counting(gp, u, v):
        nonlocal calls
        calls += 1
        return respond(gp, u, v)

    monkeypatch.setattr(nash, "_respond", counting)
    for handoff, per_seed_calls in ((65, 6), (64, 0)):
        monkeypatch.setattr(nash, "_HANDOFF", handoff)
        calls = 0
        result = nash.find_ne(PD, 64, 0)
        assert calls == 64 * per_seed_calls + 3 * len(result.equilibria)


def test_find_ne_builds_directions_only_at_the_boundary(monkeypatch):
    # Per cluster three representative directions and at most three
    # verdict responses; the starts, the updates and the dedup build none,
    # whether the seeds sweep one by one (24) or batched (256).
    built = 0
    post_init = Direction.__post_init__

    def counting(self):
        nonlocal built
        built += 1
        post_init(self)

    monkeypatch.setattr(Direction, "__post_init__", counting)
    for seeds in (24, 256):
        built = 0
        result = nash.find_ne(TWO_POLE, seeds, 0)
        assert built <= 6 * len(result.equilibria)


def test_find_ne_computes_gammas_once_for_all_seeds(monkeypatch):
    # Once, for the pair that the dynamics and every cluster's verdict share.
    calls = 0
    gammas = nash.gammas

    def counting(game):
        nonlocal calls
        calls += 1
        return gammas(game)

    monkeypatch.setattr(nash, "gammas", counting)
    nash.find_ne(TWO_POLE, 256, 0)
    assert calls == 1


# find_ne against the Direction-based reference dynamics -----------------------

def _reference_iterate(gp, start):
    """Reference dynamics, one seed at a time: every update builds and
    validates a Direction."""
    dirs = [Direction(*d) for d in start]
    for _ in range(nash.MAX_SWEEPS):
        moved = 0.0
        for own, i, j in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
            u, v = dirs[i], dirs[j]
            grad = (
                gp.gamma2 * (u.a1 * v.a1 - u.a2 * v.a2),
                -gp.gamma2 * (u.a1 * v.a2 + u.a2 * v.a1),
                gp.gamma1 * (u.a3 + v.a3),
            )
            norm = math.hypot(*grad)
            if norm > nash.GRADIENT_TOL:
                response = Direction(grad[0] / norm, grad[1] / norm, grad[2] / norm)
                moved = max(moved, _angle(dirs[own], response))
                dirs[own] = response
        if moved < nash.SWEEP_MOVE_TOL:
            return [d.components() for d in dirs]
    return None


def _reference_fixed_points(gp, seeds, rng):
    starts = core.random_directions(rng, 3 * seeds).tolist()
    return [_reference_iterate(gp, starts[3 * s:3 * s + 3]) for s in range(seeds)]


def _reference_find_ne(monkeypatch, game, seeds, rng_seed):
    with monkeypatch.context() as patch:
        patch.setattr(nash, "_fixed_points", _reference_fixed_points)
        return nash.find_ne(game, seeds, rng_seed)


_SEARCH_GAMES = [PD, TWO_POLE, SymmetricGame(0, 0, 0, 0, 0, 0), DEGENERATE] + [
    random_symmetric_game(np.random.default_rng(100 + k)) for k in range(20)
]
#: The default hand-off, and 1: every sweep of every seed batched.
_HANDOFFS = [nash._HANDOFF, 1]


@pytest.mark.parametrize("rng_seed", [0, 1, 7])
@pytest.mark.parametrize("index", range(len(_SEARCH_GAMES)))
def test_find_ne_matches_the_direction_based_reference(monkeypatch, index, rng_seed):
    g = _SEARCH_GAMES[index]
    assert repr(nash.find_ne(g, 24, rng_seed)) == repr(_reference_find_ne(monkeypatch, g, 24, rng_seed))


@pytest.mark.parametrize("rng_seed", [0, 1, 7])
@pytest.mark.parametrize("index", range(len(_SEARCH_GAMES)))
def test_find_ne_matches_the_reference_with_every_sweep_batched(monkeypatch, index, rng_seed):
    g = _SEARCH_GAMES[index]
    monkeypatch.setattr(nash, "_HANDOFF", 1)
    assert repr(nash.find_ne(g, 24, rng_seed)) == repr(_reference_find_ne(monkeypatch, g, 24, rng_seed))


@pytest.mark.parametrize("handoff", _HANDOFFS)
@pytest.mark.parametrize("g", [PD, TWO_POLE], ids=["PD", "TWO_POLE"])
def test_find_ne_matches_the_reference_above_the_handoff(monkeypatch, g, handoff):
    monkeypatch.setattr(nash, "_HANDOFF", handoff)
    seeds = 5 * nash._HANDOFF + 3
    assert repr(nash.find_ne(g, seeds, 2)) == repr(_reference_find_ne(monkeypatch, g, seeds, 2))


@pytest.mark.parametrize("handoff", _HANDOFFS)
@pytest.mark.parametrize("max_sweeps", [6, 10])
def test_find_ne_spends_the_sweep_budget_across_the_handoff(monkeypatch, max_sweeps, handoff):
    # With rng seed 0, 60 of these 300 two-pole seeds still move after 8
    # sweeps, so at the default hand-off a budget of 10 sweeps is split
    # between the batch and the per-seed loop.  Of 6 sweeps the batch spends
    # all, with more than 64 seeds active at the end.
    monkeypatch.setattr(nash, "MAX_SWEEPS", max_sweeps)
    monkeypatch.setattr(nash, "_HANDOFF", handoff)
    result = nash.find_ne(TWO_POLE, 300, 0)
    expected = _reference_find_ne(monkeypatch, TWO_POLE, 300, 0)
    assert 0 < len(result.non_converged) < 300
    assert result.non_converged == expected.non_converged
    assert repr(result) == repr(expected)


def test_find_ne_near_the_float_maximum_matches_the_reference(monkeypatch):
    # gamma1 and gamma2 overflow in payoff units, but not as the scaled pair.
    # 4 seeds sweep one by one; the larger block sweeps batched.
    g = SymmetricGame(1e308, -1e308, 1e308, -1e308, 1e308, -1e308)
    for seeds in (4, 2 * nash._HANDOFF + 5):
        result = nash.find_ne(g, seeds, 0)
        assert [eq.report.verdict for eq in result.equilibria] == [nash.STRICT] * 2
        assert repr(result) == repr(_reference_find_ne(monkeypatch, g, seeds, 0))


def _gain_scaled(report, k):
    """``report`` with its witness gain, if any, multiplied by 2**k."""
    w = report.witness
    return report if w is None else replace(report, witness=replace(w, gain=math.ldexp(w.gain, k)))


_POWER_GAMES = [PD, TWO_POLE, DEGENERATE] + [random_symmetric_game(np.random.default_rng(200 + k)) for k in range(3)]


@pytest.mark.parametrize("index", range(len(_POWER_GAMES)))
def test_search_and_verdicts_keep_their_bits_under_power_of_two_scaling(index):
    # Only witness gains, which are in payoff units, scale.
    g = _POWER_GAMES[index]
    found = nash.find_ne(g, 64, 0)
    for k in (-60, 40, 60):
        scaled = SymmetricGame(*(math.ldexp(v, k) for v in g.constants()))
        expected = [replace(eq, report=_gain_scaled(eq.report, k)) for eq in found.equilibria]
        assert repr(nash.find_ne(scaled, 64, 0)) == repr(replace(found, equilibria=tuple(expected)))
        for profile in (ALL_X, ALL_Z, ZZ_MINUS_Z, CONTINUUM):
            assert repr(nash.verify_ne(scaled, profile)) == repr(_gain_scaled(nash.verify_ne(g, profile), k))


# the tolerances on the chord ---------------------------------------------------

def _verdicts(d, e):
    """Whether a move from d to e passes SWEEP_MOVE_TOL by its chord, and by its angle."""
    return math.dist(d, e) < nash.SWEEP_MOVE_TOL, _angle_of(d, e) < nash.SWEEP_MOVE_TOL


#: Each chord rule of nash: the chord it is compared with, the angle it
#: stands for, and whether a distance equal to the bound passes.
_CHORD_RULES = {
    "SWEEP_MOVE_TOL": (nash.SWEEP_MOVE_TOL, nash.SWEEP_MOVE_TOL, False),
    "ALIGN_TOL_RAD": (nash.ALIGN_TOL_RAD, nash.ALIGN_TOL_RAD, True),
    "_DEDUP_CHORD": (nash._DEDUP_CHORD, nash.DEDUP_TOL_RAD, False),
}


@pytest.mark.parametrize("rule", sorted(_CHORD_RULES))
def test_chord_and_angle_agree_next_to_each_tolerance(rule):
    # The chord bound itself and its 64 float neighbours on either side.
    bound, angle_bound, inclusive = _CHORD_RULES[rule]
    below, above = [bound], [bound]
    for _ in range(64):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], 1.0))
    for chord in below + above:
        angle = _angle_of((chord, 0.0, 0.0), (0.0, 0.0, 0.0))
        if inclusive:
            assert (chord <= bound) == (angle <= angle_bound), chord
        else:
            assert (chord < bound) == (angle < angle_bound), chord


def test_chord_and_angle_agree_on_unit_moves_of_log_uniform_size():
    rng = np.random.default_rng(29)
    passed = 0
    for _ in range(20_000):
        d = random_direction(rng).components()
        step = 10.0 ** rng.uniform(-13.0, -7.0)
        moved = [x + step * y for x, y in zip(d, rng.normal(size=3))]
        norm = math.hypot(*moved)
        chord_passes, angle_passes = _verdicts(d, [x / norm for x in moved])
        assert chord_passes == angle_passes
        passed += chord_passes
    assert 0 < passed < 20_000


@pytest.mark.parametrize("phi", [0.0, 2 * math.pi / 3, 4 * math.pi / 3])
def test_symmetric_inplane_profiles_are_best_response_fixed_points(phi):
    d = Direction(math.cos(phi), math.sin(phi), 0.0)
    profile = DirectionProfile(d, d, d)
    for player, others in (("A", (d, d)), ("B", (d, d)), ("C", (d, d))):
        response = nash.best_response(PD, others, player)
        assert response is not None
        assert _angle(response, d) <= 1e-9
    assert nash.verify_ne(PD, profile).verdict == nash.STRICT


# case (a) / case (b) ---------------------------------------------------------

def test_case_a_constraints_examples():
    starred = ALL_X
    base_alt = DirectionProfile(Y_AXIS, X_AXIS, X_AXIS)
    values = nash.case_a_constraints(PD, starred, base_alt)
    assert values[0] == pytest.approx(1.0, abs=1e-15)

    null_alt = DirectionProfile(X_AXIS, X_AXIS, X_AXIS)
    assert nash.case_a_constraints(PD, starred, null_alt)[0] == 0.0

    flipped_alt = DirectionProfile(Direction(-1, 0, 0), X_AXIS, X_AXIS)
    assert nash.case_a_constraints(PD, starred, flipped_alt)[0] == pytest.approx(2.0, abs=1e-15)


def test_case_a_constraints_reject_out_of_plane():
    with pytest.raises(NotInPlaneError):
        nash.case_a_constraints(PD, ALL_Z, ALL_X)
    with pytest.raises(NotInPlaneError):
        nash.case_a_constraints(PD, ALL_X, ALL_Z)


def test_case_a_constraints_bridge_to_payoff_diff():
    rng = np.random.default_rng(34)
    for _ in range(100):
        g = random_symmetric_game(rng)
        starred = random_inplane_profile(rng)
        alt = random_inplane_profile(rng)
        values = nash.case_a_constraints(g, starred, alt)
        diffs = (
            nash.payoff_diff(g, starred, "A", alt.a),
            nash.payoff_diff(g, starred, "B", alt.b),
            nash.payoff_diff(g, starred, "C", alt.c),
        )
        for value, diff in zip(values, diffs):
            assert abs(value / 8.0 - diff) <= 1e-12


def test_case_b_check_degenerate_fixture():
    rng = np.random.default_rng(35)
    for _ in range(50):
        profile = random_inplane_profile(rng)
        assert nash.case_b_check(DEGENERATE, profile)
        assert nash.verify_ne(DEGENERATE, profile).verdict == nash.WEAK


def test_case_b_check_pd_fails_on_gamma2():
    assert not nash.case_b_check(PD, ALL_X)


def test_case_b_check_reads_gamma2_in_the_units_of_the_verdicts():
    # gamma2 = 1 against gamma1 = 1 and -1; at x 1e-13 it is below
    # GRADIENT_TOL in payoff units, but not in those of the scaled pair.
    for g in (SymmetricGame(2, 1, 0, 0, 0, 0), PD):
        for scale in (1e-13, *SCALES.values()):
            assert not nash.case_b_check(_scaled(g, scale), ALL_X)
            assert nash.verify_ne(_scaled(g, scale), ALL_X).verdict == nash.STRICT


def test_case_b_check_fails_out_of_plane():
    assert not nash.case_b_check(DEGENERATE, ALL_Z)


# check_pd --------------------------------------------------------------------

def test_check_pd_canonical_values_pass():
    verdict = nash.check_pd(PD)
    assert verdict.passed
    assert verdict.violated == ()


def test_check_pd_large_omega_fails():
    verdict = nash.check_pd(SymmetricGame(7, 9, 3, 0, 5, 8))
    assert not verdict.passed
    assert set(verdict.violated) == {"theta>omega", "delta>omega"}


def test_check_pd_all_equal_fails_everything():
    verdict = nash.check_pd(SymmetricGame(1, 1, 1, 1, 1, 1))
    assert not verdict.passed
    assert len(verdict.violated) == 11
