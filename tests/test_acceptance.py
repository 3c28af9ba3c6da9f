"""End-to-end acceptance suite.

Each test exercises one numbered criterion at its stated tolerance and prints
one PASS/FAIL line (visible with ``pytest -s`` or in captured output on
failure).
"""

import io
import json
import math
from contextlib import redirect_stdout

import numpy as np

from ghzgames import cli, game, ghz, nash, oracle
from ghzgames.core import (
    OUTCOMES,
    PLAYERS,
    Direction,
    DirectionProfile,
    MixedProfile,
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
    DEGENERATE,
    deviation_payoffs,
    fibonacci_sphere,
    kz_probability,
    quantum_payoffs_inplane,
    random_direction,
    random_inplane_profile,
    random_profile,
    random_symmetric_game,
    zero_correlation_inplane_profile,
)

PD_TABLE = symmetric_to_general(PD)
ALL_X = DirectionProfile(X_AXIS, X_AXIS, X_AXIS)
ALL_Z = DirectionProfile(Z_AXIS, Z_AXIS, Z_AXIS)
MINUS_Z = Direction(0, 0, -1)

SAMPLE_SEED = 20260808
SAMPLE_SIZE = 1000


def _sample_profiles():
    rng = np.random.default_rng(SAMPLE_SEED)
    return [random_profile(rng) for _ in range(SAMPLE_SIZE)]


def _report(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {number:02d} [{status}] {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_oracle_equivalence():
    worst = 0.0
    for profile in _sample_profiles():
        analytic = ghz.joint_distribution(profile)
        reference = oracle.joint_distribution_oracle(profile)
        worst = max(worst, max(abs(analytic[o] - reference[o]) for o in OUTCOMES))
    _report(1, "closed form matches 3-qubit oracle on 1000 random profiles",
            worst <= 1e-12, f"max diff {worst:.3e}")


def test_criterion_02_distribution_sanity():
    worst_sum = 0.0
    worst_entry = 0.0
    worst_marginal = 0.0
    for profile in _sample_profiles():
        values = [kz_probability(o, profile) for o in OUTCOMES]
        worst_sum = max(worst_sum, abs(math.fsum(values) - 1.0))
        worst_entry = min(worst_entry, min(values))
        for player in PLAYERS:
            plus, minus = ghz.marginal_single(profile, player)
            worst_marginal = max(worst_marginal, abs(plus - 0.5), abs(minus - 0.5))
    ok = worst_sum <= 1e-12 and worst_entry >= -1e-12 and worst_marginal <= 1e-12
    _report(2, "distributions normalized, nonnegative, with maximally mixed marginals",
            ok, f"sum dev {worst_sum:.3e}, min entry {worst_entry:.3e}, marginal dev {worst_marginal:.3e}")


def test_criterion_03_parity_certainties():
    dist = ghz.joint_distribution(ALL_X)
    even = math.fsum(dist[o] for o in OUTCOMES if o.m * o.l * o.k == 1)
    deviations = [abs(even - 1.0)]
    for profile in (
        DirectionProfile(X_AXIS, Y_AXIS, Y_AXIS),
        DirectionProfile(Y_AXIS, X_AXIS, Y_AXIS),
        DirectionProfile(Y_AXIS, Y_AXIS, X_AXIS),
    ):
        dist = ghz.joint_distribution(profile)
        odd = math.fsum(dist[o] for o in OUTCOMES if o.m * o.l * o.k == -1)
        deviations.append(abs(odd - 1.0))
    worst = max(deviations)
    _report(3, "all-x parity +1 certain; x/y/y rotations parity -1 certain",
            worst <= 1e-12, f"max dev {worst:.3e}")


def test_criterion_04_gamma_reproduction():
    gp = nash.gammas(PD)
    ok = gp.gamma1 == -1.0 and gp.gamma2 == 1.0
    _report(4, "canonical dilemma invariants are exactly (-1, 1)", ok, f"got {gp}")


def test_criterion_05_factorizability():
    rng = np.random.default_rng(41)
    ok = True
    for _ in range(100):
        report = game.factorize(zero_correlation_inplane_profile(rng))
        ok = ok and report.consistent and report.solution == MixedProfile(0.5, 0.5, 0.5)
    for profile in (ALL_Z, ALL_X):
        report = game.factorize(profile)
        ok = ok and not report.consistent and report.solution is None
    for _ in range(200):
        report = game.factorize(random_profile(rng))
        ok = ok and (report.solution is None or report.solution == MixedProfile(0.5, 0.5, 0.5))
    _report(5, "factorization is exactly (1/2,1/2,1/2) when consistent, never anything else", ok)


def test_criterion_06_payoff_spot_values():
    checks = []
    for value in game.quantum_payoffs(PD_TABLE, ALL_Z).__dict__.values():
        checks.append(abs(value - 4.0))
    for value in game.quantum_payoffs(PD_TABLE, ALL_X).__dict__.values():
        checks.append(abs(value - 4.25))
    uniform_profiles = (DirectionProfile(Z_AXIS, X_AXIS, X_AXIS),
                        DirectionProfile(X_AXIS, Y_AXIS, Z_AXIS))
    classical = game.classical_payoffs(PD_TABLE, MixedProfile(0.5, 0.5, 0.5))
    for profile in uniform_profiles:
        payoffs = game.quantum_payoffs(PD_TABLE, profile)
        checks.append(abs(payoffs.pi_a - 4.125))
        checks.append(abs(payoffs.pi_a - classical.pi_a))
        checks.append(abs(payoffs.pi_b - classical.pi_b))
        checks.append(abs(payoffs.pi_c - classical.pi_c))
    worst = max(checks)
    _report(6, "dilemma payoffs: 4 at all-z, 4.25 at all-x, 4.125 on uniform profiles",
            worst <= 1e-12, f"max dev {worst:.3e}")


def test_criterion_07_nash_algebra_consistency():
    rng = np.random.default_rng(42)
    worst_diff = 0.0
    for _ in range(1000):
        g = random_symmetric_game(rng)
        table = symmetric_to_general(g)
        starred = random_profile(rng)
        player = PLAYERS[rng.integers(3)]
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
        worst_diff = max(worst_diff, abs(nash.payoff_diff(g, starred, player, alt) - direct))

    grid = fibonacci_sphere(10_000)
    worst_shortfall = -math.inf
    for _ in range(1000):
        g = random_symmetric_game(rng)
        table = symmetric_to_general(g)
        profile = random_profile(rng)
        player = PLAYERS[rng.integers(3)]
        others = {
            "A": (profile.b, profile.c),
            "B": (profile.a, profile.c),
            "C": (profile.a, profile.b),
        }[player]
        response = nash.best_response(g, others, player)
        grid_payoffs = deviation_payoffs(table, profile, player, grid)
        if response is None:
            shortfall = float(grid_payoffs.max() - grid_payoffs.min())
        else:
            at_response = deviation_payoffs(
                table, profile, player, np.array([response.components()])
            )[0]
            shortfall = float(grid_payoffs.max() - at_response)
        worst_shortfall = max(worst_shortfall, shortfall)

    ok = worst_diff <= 1e-12 and worst_shortfall <= 1e-9
    _report(7, "closed-form deviation algebra matches direct payoffs; best response beats 10^4-point grids",
            ok, f"max algebra dev {worst_diff:.3e}, max grid shortfall {worst_shortfall:.3e}")


def test_criterion_08_ne_verdicts_and_documented_divergence(tmp_path):
    strict = nash.verify_ne(PD, ALL_X)
    not_ne = nash.verify_ne(PD, ALL_Z)
    weak = nash.verify_ne(PD, DirectionProfile(Z_AXIS, Z_AXIS, MINUS_Z))
    ok = (
        strict.verdict == nash.STRICT
        and not_ne.verdict == nash.NOT_NE
        and not_ne.witness is not None
        and abs(not_ne.witness.gain - 0.5) <= 1e-12
        and not_ne.witness.direction == MINUS_Z
        and weak.verdict == nash.WEAK
    )

    pd_file = tmp_path / "pd.json"
    pd_file.write_text(json.dumps({
        "type": "symmetric",
        "alpha": 7, "beta": 9, "delta": 3, "epsilon": 0, "theta": 5, "omega": 1,
    }), encoding="utf-8")
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(["ne", str(pd_file), "verify", "--a", "1,0,0", "--b", "1,0,0",
                         "--c", "1,0,0", "--deterministic"])
    output = buffer.getvalue()
    ok = ok and code == 0 and cli.EQUILIBRIUM_NOTE in output
    _report(8, "dilemma verdicts (strict/not-NE/weak) with witness gain 1/2; divergence note in report", ok)


def test_criterion_09_constrained_cases():
    rng = np.random.default_rng(43)
    worst_bridge = 0.0
    for _ in range(200):
        g = random_symmetric_game(rng)
        starred = random_inplane_profile(rng)
        alt = random_inplane_profile(rng)
        values = nash.case_a_constraints(g, starred, alt)
        diffs = (
            nash.payoff_diff(g, starred, "A", alt.a),
            nash.payoff_diff(g, starred, "B", alt.b),
            nash.payoff_diff(g, starred, "C", alt.c),
        )
        worst_bridge = max(worst_bridge, max(abs(v / 8.0 - d) for v, d in zip(values, diffs)))

    all_weak = True
    for _ in range(100):
        profile = random_inplane_profile(rng)
        all_weak = all_weak and nash.case_b_check(DEGENERATE, profile)
        all_weak = all_weak and nash.verify_ne(DEGENERATE, profile).verdict == nash.WEAK

    ok = worst_bridge <= 1e-12 and all_weak
    _report(9, "in-plane constraint values equal 8x payoff differences; degenerate regime is all weak",
            ok, f"max bridge dev {worst_bridge:.3e}")


def test_criterion_10_pd_gate_and_pure_equilibria():
    passes = nash.check_pd(PD)
    fails = nash.check_pd(SymmetricGame(7, 9, 3, 0, 5, 8))
    pure = game.classical_pure_ne(PD_TABLE)
    ok = (
        passes.passed
        and not fails.passed
        and "theta>omega" in fails.violated
        and len(pure) == 1
        and pure[0].outcome == OutcomeTriple(-1, -1, -1)
        and pure[0].payoffs == PayoffTriple(1, 1, 1)
        and pure[0].strict
    )
    _report(10, "dilemma gate passes canonical values, names theta>omega on the broken ones; unique all-defect pure equilibrium", ok)


def test_criterion_11_symmetry_suite():
    rng = np.random.default_rng(44)
    worst_identity = 0.0
    games = [PD] + [random_symmetric_game(rng) for _ in range(4)]
    for index in range(100):
        g = games[index % len(games)]
        table = symmetric_to_general(g)
        x, y, z = rng.uniform(0.0, 1.0, size=3)
        reference = game.classical_payoffs(table, MixedProfile(x, y, z)).pi_a
        equivalents = (
            game.classical_payoffs(table, MixedProfile(x, z, y)).pi_a,
            game.classical_payoffs(table, MixedProfile(y, x, z)).pi_b,
            game.classical_payoffs(table, MixedProfile(z, x, y)).pi_b,
            game.classical_payoffs(table, MixedProfile(y, z, x)).pi_c,
            game.classical_payoffs(table, MixedProfile(z, y, x)).pi_c,
        )
        worst_identity = max(worst_identity, max(abs(v - reference) for v in equivalents))

    worst_inplane = 0.0
    for _ in range(100):
        g = random_symmetric_game(rng)
        profile = random_inplane_profile(rng)
        via_plane = quantum_payoffs_inplane(g, profile)
        via_general = game.quantum_payoffs(symmetric_to_general(g), profile)
        worst_inplane = max(
            worst_inplane,
            abs(via_plane.pi_a - via_general.pi_a),
            abs(via_plane.pi_b - via_general.pi_b),
            abs(via_plane.pi_c - via_general.pi_c),
        )

    ok = worst_identity <= 1e-12 and worst_inplane <= 1e-12
    _report(11, "six-way symmetric payoff identity and in-plane/general agreement",
            ok, f"identity dev {worst_identity:.3e}, in-plane dev {worst_inplane:.3e}")


def test_criterion_12_cli_determinism(tmp_path):
    pd_file = tmp_path / "pd.json"
    pd_file.write_text(json.dumps({
        "type": "symmetric",
        "alpha": 7, "beta": 9, "delta": 3, "epsilon": 0, "theta": 5, "omega": 1,
    }), encoding="utf-8")
    argv = ["ne", str(pd_file), "find", "--seeds", "16", "--rng-seed", "11",
            "--deterministic", "--format", "json"]
    outputs = []
    codes = []
    for _ in range(2):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            codes.append(cli.main(argv))
        outputs.append(buffer.getvalue().encode("utf-8"))
    # Seeds are evaluated and merged sequentially, so the report does not
    # depend on any thread count.
    ok = codes == [0, 0] and outputs[0] == outputs[1] and len(outputs[0]) > 0
    _report(12, "equilibrium search reports are byte-identical across runs", ok)
