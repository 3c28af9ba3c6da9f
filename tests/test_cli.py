import json
import os
import subprocess
import sys

import pytest

from ghzgames import cli, ghz, nash
from ghzgames.core import SYMMETRIC_CONSTANTS, SymmetricGame
from support import PD_GENERAL_ENTRIES, checkout_env

PD_FILE_CONTENT = {
    "type": "symmetric",
    "alpha": 7, "beta": 9, "delta": 3, "epsilon": 0, "theta": 5, "omega": 1,
}


@pytest.fixture
def pd_file(tmp_path):
    path = tmp_path / "pd.json"
    path.write_text(json.dumps(PD_FILE_CONTENT), encoding="utf-8")
    return str(path)


@pytest.fixture
def general_pd_file(tmp_path):
    path = tmp_path / "pd_general.json"
    path.write_text(json.dumps({"type": "general", "entries": PD_GENERAL_ENTRIES}), encoding="utf-8")
    return str(path)


@pytest.fixture
def asymmetric_file(tmp_path):
    entries = PD_GENERAL_ENTRIES[:7] + [{"strategies": ["S2", "S2", "S2"], "payoffs": [1, 2, 1]}]
    path = tmp_path / "asym.json"
    path.write_text(json.dumps({"type": "general", "entries": entries}), encoding="utf-8")
    return str(path)


def run_cli(capsys, args):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# probs -----------------------------------------------------------------------

def test_probs_computational_basis(capsys):
    code, out, _ = run_cli(capsys, ["probs", "--a", "0,0,1", "--b", "0,0,1", "--c", "0,0,1",
                                    "--format", "json", "--deterministic"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["probabilities"]["+++"] == 0.5
    assert report["results"]["probabilities"]["---"] == 0.5
    assert report["results"]["probabilities"]["++-"] == 0.0


def test_probs_oracle_discrepancy_is_tiny(capsys):
    code, out, _ = run_cli(capsys, ["probs", "--a", "1,0,0", "--b", "1,0,0", "--c", "1,0,0",
                                    "--oracle", "--format", "json", "--deterministic"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["max_abs_discrepancy"] <= 1e-12


def test_probs_malformed_vector_exits_2(capsys):
    code, _, err = run_cli(capsys, ["probs", "--a", "1,0", "--b", "0,0,1", "--c", "0,0,1"])
    assert code == 2
    assert "error" in err


def test_probs_non_numeric_vector_exits_2(capsys):
    code, _, _ = run_cli(capsys, ["probs", "--a", "1,zero,0", "--b", "0,0,1", "--c", "0,0,1"])
    assert code == 2


def test_probs_non_unit_exits_3(capsys):
    code, _, _ = run_cli(capsys, ["probs", "--a", "1,1,0", "--b", "0,0,1", "--c", "0,0,1"])
    assert code == 3


def test_probs_missing_direction_flags_exits_2(capsys):
    code, out, err = run_cli(capsys, ["probs", "--a", "1,0,0"])
    assert (code, out) == (2, "")
    assert err == "error: missing direction flag(s): --b, --c\n"


def test_probs_non_finite_spherical_angle_exits_3(capsys):
    code, _, err = run_cli(capsys, ["probs", "--spherical", "--a", "nan,0", "--b", "0,0",
                                    "--c", "0,0"])
    assert code == 3
    assert err.startswith("error: --a: ")


@pytest.mark.parametrize("angles", ["inf,1", "1,-inf", "nan,inf"])
def test_probs_infinite_spherical_angle_exits_3(capsys, angles):
    code, _, err = run_cli(capsys, ["probs", "--spherical", f"--a={angles}", "--b", "0,0", "--c", "0,0"])
    assert code == 3
    assert err == f"error: --a: spherical angles must be finite, got {angles!r}\n"


def test_sweep_infinite_spherical_angle_exits_3(capsys, pd_file):
    code, out, err = run_cli(capsys, ["sweep", pd_file, "--rotate", "A", "--steps", "4", "--spherical",
                                      "--b=inf,0", "--c", "0,0"])
    assert (code, out) == (3, "")
    assert err.startswith("error: --b: ")


def test_probs_normalize_accepts_scaled_input(capsys):
    code, out, _ = run_cli(capsys, ["probs", "--a", "2,2,0", "--b", "0,0,1", "--c", "0,0,1",
                                    "--normalize", "--format", "json", "--deterministic"])
    assert code == 0
    report = json.loads(out)
    a = report["inputs"]["a"]
    assert a[0] == pytest.approx(2 ** -0.5)


def test_probs_spherical_input(capsys):
    # theta = pi/2, phi = 0 is the +x axis.
    import math
    code, out, _ = run_cli(capsys, ["probs", "--a", f"{math.pi / 2},0", "--b", f"{math.pi / 2},0",
                                    "--c", f"{math.pi / 2},0", "--spherical",
                                    "--format", "json", "--deterministic"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["probabilities"]["+++"] == pytest.approx(0.25, abs=1e-12)


def test_probs_csv_output(capsys):
    code, out, _ = run_cli(capsys, ["probs", "--a", "0,0,1", "--b", "0,0,1", "--c", "0,0,1",
                                    "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "outcome,probability"
    assert len(lines) == 9


# payoffs ---------------------------------------------------------------------

def test_payoffs_quantum_all_z(capsys, pd_file):
    code, out, _ = run_cli(capsys, ["payoffs", pd_file, "--a", "0,0,1", "--b", "0,0,1",
                                    "--c", "0,0,1", "--format", "json", "--deterministic"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["payoffs"] == {"A": 4.0, "B": 4.0, "C": 4.0}


def test_payoffs_quantum_all_x(capsys, pd_file):
    code, out, _ = run_cli(capsys, ["payoffs", pd_file, "--a", "1,0,0", "--b", "1,0,0",
                                    "--c", "1,0,0", "--format", "json", "--deterministic"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["payoffs"]["A"] == pytest.approx(4.25, abs=1e-15)


def test_payoffs_classical_uniform(capsys, pd_file):
    code, out, _ = run_cli(capsys, ["payoffs", pd_file, "--classical", "0.5,0.5,0.5",
                                    "--format", "json", "--deterministic"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["payoffs"]["A"] == pytest.approx(4.125, abs=1e-15)


def test_payoffs_requires_exactly_one_mode(capsys, pd_file):
    code, _, _ = run_cli(capsys, ["payoffs", pd_file, "--classical", "0.5,0.5,0.5",
                                  "--a", "1,0,0", "--b", "1,0,0", "--c", "1,0,0"])
    assert code == 2
    code, _, _ = run_cli(capsys, ["payoffs", pd_file])
    assert code == 2


def test_payoffs_bad_game_schema_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "symmetric", "alpha": 1}), encoding="utf-8")
    code, _, _ = run_cli(capsys, ["payoffs", str(bad), "--classical", "0.5,0.5,0.5"])
    assert code == 2


def test_payoffs_classical_probability_out_of_range_exits_2(capsys, pd_file):
    code, out, err = run_cli(capsys, ["payoffs", pd_file, "--classical", "1.5,0,0"])
    assert (code, out) == (2, "")
    assert err == "error: probability x must lie in [0, 1], got 1.5\n"


def test_payoffs_general_file_matches_symmetric(capsys, pd_file, general_pd_file):
    args = ["--a", "1,0,0", "--b", "1,0,0", "--c", "1,0,0", "--format", "json", "--deterministic"]
    _, out_sym, _ = run_cli(capsys, ["payoffs", pd_file, *args])
    _, out_gen, _ = run_cli(capsys, ["payoffs", general_pd_file, *args])
    sym = json.loads(out_sym)["results"]
    gen = json.loads(out_gen)["results"]
    assert sym["payoffs"] == gen["payoffs"]


# factorize -------------------------------------------------------------------

def test_factorize_consistent(capsys):
    code, out, _ = run_cli(capsys, ["factorize", "--a", "0,0,1", "--b", "1,0,0", "--c", "1,0,0",
                                    "--format", "json", "--deterministic"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["consistent"] is True
    assert report["results"]["solution"] == [0.5, 0.5, 0.5]


def test_factorize_all_z_names_equations(capsys):
    code, out, _ = run_cli(capsys, ["factorize", "--a", "0,0,1", "--b", "0,0,1", "--c", "0,0,1",
                                    "--format", "json", "--deterministic"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["consistent"] is False
    assert report["results"]["solution"] is None
    violated = {eq for eq, _ in report["results"]["violated_equations"]}
    assert {"E1", "E8"} <= violated


def test_factorize_all_x_inconsistent(capsys):
    code, out, _ = run_cli(capsys, ["factorize", "--a", "1,0,0", "--b", "1,0,0", "--c", "1,0,0",
                                    "--format", "json", "--deterministic"])
    assert code == 0
    assert json.loads(out)["results"]["consistent"] is False


# ne --------------------------------------------------------------------------

def test_ne_verify_all_x_strict(capsys, pd_file):
    code, out, _ = run_cli(capsys, ["ne", pd_file, "verify", "--a", "1,0,0", "--b", "1,0,0",
                                    "--c", "1,0,0", "--format", "json", "--deterministic"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["report"]["verdict"] == "strict"
    assert report["results"]["note"] == cli.EQUILIBRIUM_NOTE


def test_ne_verify_all_z_witness(capsys, pd_file):
    code, out, _ = run_cli(capsys, ["ne", pd_file, "verify", "--a", "0,0,1", "--b", "0,0,1",
                                    "--c", "0,0,1", "--format", "json", "--deterministic"])
    assert code == 0
    witness = json.loads(out)["results"]["report"]["witness"]
    assert witness["player"] == "A"
    assert witness["direction"][2] == -1.0
    assert witness["gain"] == pytest.approx(0.5, abs=1e-15)


def test_ne_verify_note_in_table_output(capsys, pd_file):
    code, out, _ = run_cli(capsys, ["ne", pd_file, "verify", "--a", "1,0,0", "--b", "1,0,0",
                                    "--c", "1,0,0", "--deterministic"])
    assert code == 0
    assert cli.EQUILIBRIUM_NOTE in out


def test_ne_check_pd_flag(capsys, pd_file):
    code, out, _ = run_cli(capsys, ["ne", pd_file, "verify", "--a", "1,0,0", "--b", "1,0,0",
                                    "--c", "1,0,0", "--check-pd", "--format", "json",
                                    "--deterministic"])
    assert code == 0
    report = json.loads(out)
    assert report["results"]["pd_check"] == {"passed": True, "violated": []}


def test_ne_general_symmetric_file_accepted(capsys, general_pd_file):
    code, out, _ = run_cli(capsys, ["ne", general_pd_file, "verify", "--a", "1,0,0",
                                    "--b", "1,0,0", "--c", "1,0,0", "--format", "json",
                                    "--deterministic"])
    assert code == 0
    assert json.loads(out)["results"]["report"]["verdict"] == "strict"


def test_ne_asymmetric_game_exits_4(capsys, asymmetric_file):
    code, _, err = run_cli(capsys, ["ne", asymmetric_file, "verify", "--a", "1,0,0",
                                    "--b", "1,0,0", "--c", "1,0,0"])
    assert code == 4
    assert "symmetric" in err


def test_ne_find_reports_seeds_and_verdicts(capsys, pd_file):
    code, out, _ = run_cli(capsys, ["ne", pd_file, "find", "--seeds", "8", "--rng-seed", "3",
                                    "--format", "json", "--deterministic"])
    assert code == 0
    report = json.loads(out)
    assert report["rng_seed"] == 3
    equilibria = report["results"]["equilibria"]
    assert equilibria
    seeds = sorted(s for eq in equilibria for s in eq["seeds"])
    assert seeds == list(range(8))
    assert all(eq["report"]["verdict"] in ("strict", "weak") for eq in equilibria)
    assert report["results"]["non_converged_seeds"] == []


def test_ne_find_deterministic_byte_identical(capsys, pd_file):
    args = ["ne", pd_file, "find", "--seeds", "8", "--rng-seed", "11", "--deterministic",
            "--format", "json"]
    code1, out1, _ = run_cli(capsys, args)
    code2, out2, _ = run_cli(capsys, args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_ne_find_all_seeds_failing_exits_5(capsys, pd_file, monkeypatch):
    monkeypatch.setattr(
        cli.nash, "find_ne",
        lambda game, seeds, rng_seed: nash.SearchResult((), tuple(range(seeds))),
    )
    code, _, err = run_cli(capsys, ["ne", pd_file, "find", "--seeds", "4"])
    assert code == 5
    assert "no seed converged" in err


def test_ne_find_rejects_bad_seed_count(capsys, pd_file):
    code, _, _ = run_cli(capsys, ["ne", pd_file, "find", "--seeds", "0"])
    assert code == 2


def test_ne_find_rejects_negative_rng_seed(capsys, pd_file):
    code, out, err = run_cli(capsys, ["ne", pd_file, "find", "--rng-seed", "-1"])
    assert code == 2
    assert out == ""
    assert "--rng-seed" in err and "Traceback" not in err


#: Every constant is finite, but gamma1 and gamma2 overflow in payoff units.
BIG_FILE_CONTENT = {
    "type": "symmetric",
    "alpha": 1e308, "beta": -1e308, "delta": 1e308, "epsilon": -1e308, "theta": 1e308, "omega": -1e308,
}


def _ne_verdicts(out: str, fmt: str) -> list[str]:
    """The verdicts in an ne report, in report order."""
    if fmt == "json":
        results = json.loads(out)["results"]
        if "report" in results:
            return [results["report"]["verdict"]]
        return [eq["report"]["verdict"] for eq in results["equilibria"]]
    if fmt == "csv":
        rows = [line.split(",") for line in out.splitlines()[1:]]
        return [row[1] for row in rows if row[0] == "verdict" or row[0].isdigit()]
    return [line.split()[1] for line in out.splitlines() if line.startswith(("verdict:", "  ["))]


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("subaction, verdicts", [
    (["find", "--seeds", "4"], [nash.STRICT] * 2),
    (["verify", "--a", "1,0,0", "--b", "1,0,0", "--c", "1,0,0"], [nash.STRICT]),
], ids=["find", "verify"])
def test_ne_near_the_float_maximum_exits_0(capsys, tmp_path, subaction, verdicts, fmt):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(BIG_FILE_CONTENT), encoding="utf-8")
    code, out, err = run_cli(capsys, ["ne", str(path), *subaction, "--format", fmt, "--deterministic"])
    assert (code, err) == (0, "")
    assert _ne_verdicts(out, fmt) == verdicts


#: gamma1 = 4 * M with M the largest float; at (-z, z, z) A gains 2 * M, beyond the float range.
HUGE_FILE_CONTENT = {
    "type": "symmetric",
    "alpha": sys.float_info.max, "beta": -sys.float_info.max, "delta": 0,
    "epsilon": -sys.float_info.max, "theta": 0, "omega": sys.float_info.max,
}


@pytest.mark.parametrize("fmt, gain", [
    ("table", "for gain inf\n"), ("csv", 'gain inf"\n'), ("json", '"gain": Infinity,'),
])
def test_ne_verify_prints_a_gain_beyond_the_float_range_as_inf(capsys, tmp_path, fmt, gain):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(HUGE_FILE_CONTENT), encoding="utf-8")
    code, out, err = run_cli(capsys, ["ne", str(path), "verify", "--a", "0,0,-1", "--b", "0,0,1", "--c", "0,0,1",
                                      "--format", fmt, "--deterministic"])
    assert (code, err) == (0, "")
    assert _ne_verdicts(out, fmt) == [nash.NOT_NE]
    assert gain in out


#: The largest float for all six constants: any expectation whose weights
#: round to a sum above 1 overflows.
MAX_FILE_CONTENT = {"type": "symmetric", **dict.fromkeys(SYMMETRIC_CONSTANTS, sys.float_info.max)}


@pytest.mark.parametrize("strategy", [
    ["--classical", "0.7344308588405618,0.027252094951458417,0.6644037016958879"],
    ["--a=-0.4999999999999998,0.8660254037844387,0", "--b", "1,0,0", "--c", "0,1,0"],
], ids=["classical", "quantum"])
def test_payoffs_whose_expectation_overflows_exit_2(capsys, tmp_path, strategy):
    path = tmp_path / "max.json"
    path.write_text(json.dumps(MAX_FILE_CONTENT), encoding="utf-8")
    code, out, err = run_cli(capsys, ["payoffs", str(path), *strategy])
    assert (code, out) == (2, "")
    assert err == f"error: {cli._EXPECTATION_OVERFLOW}\n"


@pytest.mark.parametrize("fmt, written", [("json", 1), ("csv", 2), ("table", 2)])
def test_sweep_stops_at_the_first_overflowing_expectation_with_exit_2(capsys, tmp_path, fmt, written):
    # Step 0 (A along x) is exact; step 1 (A at 120 degrees) overflows.
    path = tmp_path / "max.json"
    path.write_text(json.dumps(MAX_FILE_CONTENT), encoding="utf-8")
    code, out, err = run_cli(capsys, ["sweep", str(path), "--rotate", "A", "--steps", "3",
                                      "--b", "1,0,0", "--c", "0,1,0", "--format", fmt])
    assert code == 2
    assert err == f"error: {cli._EXPECTATION_OVERFLOW}\n"
    lines = out.splitlines()
    assert len(lines) == written and lines[-1].startswith(("{\"angle\": 0.0", "0.0,"))


def test_ne_find_table_lists_non_converged_seeds(capsys, tmp_path, monkeypatch):
    # Six sweeps are too few for some starts on the two-pole game, so the
    # search gives up on them (two clusters, six seeds left over).
    monkeypatch.setattr(nash, "MAX_SWEEPS", 6)
    constants = {"alpha": 6, "beta": -4, "delta": -7, "epsilon": 4, "theta": -1, "omega": 6}
    path = tmp_path / "two_pole.json"
    path.write_text(json.dumps({"type": "symmetric", **constants}), encoding="utf-8")
    search = nash.find_ne(SymmetricGame(**constants), 16, 0)
    assert (len(search.equilibria), len(search.non_converged)) == (2, 6)
    code, out, _ = run_cli(capsys, ["ne", str(path), "find", "--seeds", "16", "--rng-seed", "0"])
    assert code == 0
    assert out.splitlines()[0] == "equilibria found: 2"
    assert f"non-converged seeds: {list(search.non_converged)}" in out.splitlines()


# sweep -----------------------------------------------------------------------

def test_sweep_emits_one_record_per_step(capsys, pd_file):
    code, out, _ = run_cli(capsys, ["sweep", pd_file, "--rotate", "A", "--plane", "xy",
                                    "--steps", "4", "--b", "1,0,0", "--c", "1,0,0",
                                    "--format", "json"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 4


def test_sweep_payoff_values_at_key_angles(capsys, pd_file):
    code, out, _ = run_cli(capsys, ["sweep", pd_file, "--rotate", "player=A", "--plane", "xy",
                                    "--steps", "4", "--b", "1,0,0", "--c", "1,0,0",
                                    "--format", "json"])
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert records[0]["angle"] == 0.0
    assert records[0]["payoffs"]["A"] == pytest.approx(4.25, abs=1e-12)
    assert records[2]["payoffs"]["A"] == pytest.approx(4.0, abs=1e-12)


def test_sweep_computes_each_distribution_once(capsys, pd_file, monkeypatch):
    calls = 0
    joint = ghz.joint_distribution

    def counting(profile):
        nonlocal calls
        calls += 1
        return joint(profile)

    monkeypatch.setattr(ghz, "joint_distribution", counting)
    code, _, _ = run_cli(capsys, ["sweep", pd_file, "--rotate", "A", "--plane", "xy",
                                  "--steps", "50", "--b", "1,0,0", "--c", "1,0,0"])
    assert code == 0
    assert calls == 50


def test_sweep_csv_shape(capsys, pd_file):
    code, out, _ = run_cli(capsys, ["sweep", pd_file, "--rotate", "A", "--plane", "xy",
                                    "--steps", "3", "--b", "1,0,0", "--c", "1,0,0",
                                    "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    header = lines[0].split(",")
    assert header[0] == "angle"
    assert header[-3:] == ["payoff_a", "payoff_b", "payoff_c"]
    assert len(header) == 12


def test_sweep_bad_spec_exits_2(capsys, pd_file):
    code, _, _ = run_cli(capsys, ["sweep", pd_file, "--rotate", "D", "--plane", "xy",
                                  "--steps", "4", "--b", "1,0,0", "--c", "1,0,0"])
    assert code == 2
    code, _, _ = run_cli(capsys, ["sweep", pd_file, "--rotate", "A", "--plane", "ww",
                                  "--steps", "4", "--b", "1,0,0", "--c", "1,0,0"])
    assert code == 2
    code, _, _ = run_cli(capsys, ["sweep", pd_file, "--rotate", "A", "--plane", "xy",
                                  "--steps", "4", "--c", "1,0,0"])
    assert code == 2


def test_sweep_zero_steps_exits_2(capsys, pd_file):
    code, out, err = run_cli(capsys, ["sweep", pd_file, "--rotate", "A", "--steps", "0",
                                      "--b", "1,0,0", "--c", "1,0,0"])
    assert (code, out) == (2, "")
    assert err == "error: --steps must be >= 1\n"


# check-game ------------------------------------------------------------------

def test_check_game_symmetric_file(capsys, pd_file):
    code, out, _ = run_cli(capsys, ["check-game", pd_file, "--format", "json", "--deterministic"])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["symmetric"] is True
    assert results["constants"]["alpha"] == 7.0


def test_check_game_recovers_constants_from_general_file(capsys, general_pd_file):
    code, out, _ = run_cli(capsys, ["check-game", general_pd_file, "--format", "json",
                                    "--deterministic"])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["symmetric"] is True
    assert results["constants"] == {
        "alpha": 7.0, "beta": 9.0, "delta": 3.0, "epsilon": 0.0, "theta": 5.0, "omega": 1.0,
    }


def test_check_game_lists_violations(capsys, asymmetric_file):
    code, out, _ = run_cli(capsys, ["check-game", asymmetric_file, "--format", "json",
                                    "--deterministic"])
    assert code == 0
    results = json.loads(out)["results"]
    assert results["symmetric"] is False
    assert results["violations"]


def test_check_game_bad_json_exits_2(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, _ = run_cli(capsys, ["check-game", str(bad)])
    assert code == 2


@pytest.mark.parametrize("token", ["Infinity", "NaN"])
def test_check_game_non_finite_constant_exits_2(capsys, tmp_path, token):
    # Python's json module accepts these tokens, so SymmetricGame sees them.
    bad = tmp_path / "inf.json"
    text = json.dumps(PD_FILE_CONTENT).replace('"alpha": 7', f'"alpha": {token}')
    bad.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, ["check-game", str(bad)])
    assert (code, out) == (2, "")
    assert err.startswith("error: payoff constant alpha must be finite")


def test_check_game_missing_file_exits_2(capsys, tmp_path):
    code, _, _ = run_cli(capsys, ["check-game", str(tmp_path / "missing.json")])
    assert code == 2


_NEEDS_CONSTANTS = (
    "error: symmetric game file needs numeric fields "
    "('alpha', 'beta', 'delta', 'epsilon', 'theta', 'omega')\n"
)


@pytest.mark.parametrize("content, message", [
    ([], "must be an object with a 'type' field"),
    ({"alpha": 1}, "must be an object with a 'type' field"),
    ({"type": "general", "entries": PD_GENERAL_ENTRIES[:7]}, "needs an 'entries' list of 8 records"),
    ({"type": "general", "entries": [{"strategies": ["S3", "S1", "S1"], "payoffs": [7, 7, 7]}]
      + PD_GENERAL_ENTRIES[1:]}, "strategy label must be 'S1' or 'S2', got 'S3'"),
    ({"type": "general", "entries": PD_GENERAL_ENTRIES[:7] + PD_GENERAL_ENTRIES[:1]},
     "duplicate strategy triple ['S1', 'S1', 'S1']"),
    ({"type": "other"}, "unknown game file type 'other'"),
    ({**PD_FILE_CONTENT, "omega": None}, _NEEDS_CONSTANTS),
    ({k: v for k, v in PD_FILE_CONTENT.items() if k != "theta"}, _NEEDS_CONSTANTS),
], ids=["list", "no-type", "seven-entries", "bad-label", "repeated-triple", "other-type",
        "non-numeric-constant", "missing-constant"])
def test_check_game_malformed_file_exits_2(capsys, tmp_path, content, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(content), encoding="utf-8")
    code, out, err = run_cli(capsys, ["check-game", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err


_HUGE_INT = "1" + "0" * 400  # beyond the float range
_PD_TEXT = json.dumps(PD_FILE_CONTENT)


@pytest.mark.parametrize("content, message", [
    (b"\xff" + _PD_TEXT.encode(), "cannot read game file"),
    (_PD_TEXT.replace('"alpha": 7', f'"alpha": {_HUGE_INT}'),
     "error: symmetric game field 'alpha': int too large to convert to float\n"),
    (json.dumps({"type": "general", "entries": PD_GENERAL_ENTRIES}).replace("[7, 7, 7]", f"[{_HUGE_INT}, 7, 7]"),
     "int too large to convert to float"),
    # More digits than Python's default limit for converting a str to an int.
    (_PD_TEXT.replace('"alpha": 7', '"alpha": ' + "1" * 5000), "game file"),
    ("[" * 100_000, "is not valid JSON"),
], ids=["not-utf8", "huge-constant", "huge-payoff", "too-many-digits", "deep-nesting"])
@pytest.mark.parametrize("argv", [
    ["check-game"],
    ["payoffs", "--classical", "0.5,0.5,0.5"],
    ["ne", "verify", "--a", "1,0,0", "--b", "1,0,0", "--c", "1,0,0"],
], ids=["check-game", "payoffs", "ne-verify"])
def test_game_file_that_fails_to_load_exits_2_with_one_error_line(capsys, tmp_path, content, message, argv):
    path = tmp_path / "bad.json"
    path.write_bytes(content if isinstance(content, bytes) else content.encode())
    code, out, err = run_cli(capsys, [argv[0], str(path), *argv[1:]])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


# report envelope -------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["probs", "--a", "0,0,1", "--b", "0,0,1", "--c", "0,0,1"],
    ["factorize", "--a", "1,0,0", "--b", "0,1,0", "--c", "0,0,1"],
])
def test_json_reports_round_trip(capsys, argv):
    code, out, _ = run_cli(capsys, [*argv, "--format", "json", "--deterministic"])
    assert code == 0
    parsed = json.loads(out)
    assert json.dumps(parsed, indent=2, sort_keys=True) == out.rstrip("\n")


@pytest.mark.parametrize("argv_tail", [
    ["payoffs", "--classical", "0.25,0.5,0.75"],
    ["ne", "verify", "--a", "1,0,0", "--b", "1,0,0", "--c", "1,0,0"],
    ["ne", "find", "--seeds", "4", "--rng-seed", "2"],
    ["check-game"],
])
def test_json_report_round_trip_with_game_file(capsys, pd_file, argv_tail):
    argv = [argv_tail[0], pd_file, *argv_tail[1:], "--format", "json", "--deterministic"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    parsed = json.loads(out)
    assert json.dumps(parsed, indent=2, sort_keys=True) == out.rstrip("\n")


def test_sweep_json_lines_round_trip(capsys, pd_file):
    argv = ["sweep", pd_file, "--rotate", "A", "--plane", "yz", "--steps", "5",
            "--b", "1,0,0", "--c", "0,1,0", "--format", "json"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    rebuilt = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    assert rebuilt == out


def test_timestamp_suppressed_only_under_deterministic(capsys):
    argv = ["probs", "--a", "0,0,1", "--b", "0,0,1", "--c", "0,0,1", "--format", "json"]
    _, out, _ = run_cli(capsys, argv)
    assert "timestamp" in json.loads(out)
    _, out, _ = run_cli(capsys, [*argv, "--deterministic"])
    assert "timestamp" not in json.loads(out)


def test_version_flag(capsys):
    code, out, _ = run_cli(capsys, ["--version"])
    assert code == 0
    assert "ghzgames" in out


def test_report_envelope_fields(capsys):
    _, out, _ = run_cli(capsys, ["probs", "--a", "0,0,1", "--b", "0,0,1", "--c", "0,0,1",
                                 "--format", "json", "--deterministic"])
    report = json.loads(out)
    assert report["command"] == "probs"
    assert "inputs" in report and "results" in report and "tool_version" in report


# byte-for-byte snapshots -----------------------------------------------------

#: Whole stdout of one --deterministic run per case.  PD and ASYM stand for the
#: pd_file and asymmetric_file fixtures, and <note> for EQUILIBRIUM_NOTE.
SNAPSHOTS = {
    "probs_table": (
        ["probs", "--a", "1,0,0", "--b", "0,1,0", "--c", "0,0,1"],
        """\
outcome  probability
+++      0.125
-++      0.125
+-+      0.125
++-      0.125
+--      0.125
-+-      0.125
--+      0.125
---      0.125
""",
    ),
    "probs_oracle_table": (
        ["probs", "--a", "1,0,0", "--b", "1,0,0", "--c", "1,0,0", "--oracle"],
        """\
outcome  probability            oracle                 abs_diff
+++      0.25                   0.24999999999999994    5.551115123125783e-17
-++      0.0                    0.0                    0.0
+-+      0.0                    0.0                    0.0
++-      0.0                    0.0                    0.0
+--      0.25                   0.24999999999999994    5.551115123125783e-17
-+-      0.25                   0.24999999999999994    5.551115123125783e-17
--+      0.25                   0.24999999999999994    5.551115123125783e-17
---      0.0                    0.0                    0.0
max |analytic - oracle| = 5.551115123125783e-17
""",
    ),
    "probs_oracle_csv": (
        ["probs", "--a", "1,0,0", "--b", "1,0,0", "--c", "1,0,0", "--oracle", "--format", "csv"],
        """\
outcome,probability,oracle,abs_diff
+++,0.25,0.24999999999999994,5.551115123125783e-17
-++,0.0,0.0,0.0
+-+,0.0,0.0,0.0
++-,0.0,0.0,0.0
+--,0.25,0.24999999999999994,5.551115123125783e-17
-+-,0.25,0.24999999999999994,5.551115123125783e-17
--+,0.25,0.24999999999999994,5.551115123125783e-17
---,0.0,0.0,0.0
""",
    ),
    "payoffs_quantum_table": (
        ["payoffs", "PD", "--a", "1,0,0", "--b", "1,0,0", "--c", "1,0,0"],
        """\
quantum payoffs
  A: 4.25
  B: 4.25
  C: 4.25
""",
    ),
    "payoffs_classical_csv": (
        ["payoffs", "ASYM", "--classical", "0.25,0.5,0.75", "--format", "csv"],
        """\
player,payoff
A,5.53125
B,4.1875
C,2.78125
""",
    ),
    "factorize_table": (
        ["factorize", "--a", "0,0,1", "--b", "0,0,1", "--c", "0,0,1"],
        """\
consistent: False
solution: none
equation residuals:
  E1: 0.375  VIOLATED
  E2: 0.125  VIOLATED
  E3: 0.125  VIOLATED
  E4: 0.125  VIOLATED
  E5: 0.125  VIOLATED
  E6: 0.125  VIOLATED
  E7: 0.125  VIOLATED
  E8: 0.375  VIOLATED
""",
    ),
    "factorize_csv": (
        ["factorize", "--a", "0,0,1", "--b", "1,0,0", "--c", "1,0,0", "--format", "csv"],
        """\
equation,residual,violated
E1,0.0,false
E2,0.0,false
E3,0.0,false
E4,0.0,false
E5,0.0,false
E6,0.0,false
E7,0.0,false
E8,0.0,false
""",
    ),
    "ne_verify_table": (
        ["ne", "PD", "verify", "--a", "0,0,1", "--b", "0,0,1", "--c", "0,0,1", "--check-pd"],
        """\
dilemma conditions: pass
verdict: not_ne
  best response A: (0.0, -0.0, -1.0)
  best response B: (0.0, -0.0, -1.0)
  best response C: (0.0, -0.0, -1.0)
  witness: player A deviates to (0.0, -0.0, -1.0) for gain 0.5
note: <note>
""",
    ),
    "ne_verify_csv": (
        ["ne", "PD", "verify", "--a", "0,0,1", "--b", "0,0,1", "--c", "0,0,1", "--check-pd", "--format", "csv"],
        """\
key,value
verdict,not_ne
best_response_A,"0.0,-0.0,-1.0"
best_response_B,"0.0,-0.0,-1.0"
best_response_C,"0.0,-0.0,-1.0"
witness_A,"0.0,-0.0,-1.0 gain 0.5"
""",
    ),
    "ne_verify_json": (
        ["ne", "PD", "verify", "--a", "0,0,1", "--b", "0,0,1", "--c", "0,0,1", "--check-pd", "--format", "json"],
        """\
{
  "command": "ne",
  "inputs": {
    "a": [
      0.0,
      0.0,
      1.0
    ],
    "b": [
      0.0,
      0.0,
      1.0
    ],
    "c": [
      0.0,
      0.0,
      1.0
    ],
    "game": {
      "alpha": 7.0,
      "beta": 9.0,
      "delta": 3.0,
      "epsilon": 0.0,
      "omega": 1.0,
      "theta": 5.0,
      "type": "symmetric"
    },
    "subaction": "verify"
  },
  "results": {
    "note": "<note>",
    "pd_check": {
      "passed": true,
      "violated": []
    },
    "report": {
      "best_responses": {
        "A": [
          0.0,
          -0.0,
          -1.0
        ],
        "B": [
          0.0,
          -0.0,
          -1.0
        ],
        "C": [
          0.0,
          -0.0,
          -1.0
        ]
      },
      "verdict": "not_ne",
      "witness": {
        "direction": [
          0.0,
          -0.0,
          -1.0
        ],
        "gain": 0.5,
        "player": "A"
      }
    }
  },
  "tool_version": "0.1.0"
}
""",
    ),
    "ne_find_table": (
        ["ne", "PD", "find", "--seeds", "2", "--rng-seed", "2"],
        """\
equilibria found: 2
  [0] strict  a=(-0.1873999036899532, 0.7754246603097731, -0.6029907729646196) b=(-0.7531367549566194, 0.5551684973273435, 0.35294895935349146) c=(-0.3675848134729689, 0.8740614290753409, 0.3176444916991562) seeds=[0]
  [1] strict  a=(0.8901118359635087, 0.19298839695740835, 0.4128636556025263) b=(-0.3386863612276535, -0.8159057137266562, 0.46860368652686346) c=(-0.120663671227136, 0.6632845803580336, -0.7385755505737085) seeds=[1]
note: <note>
""",
    ),
    "ne_find_csv": (
        ["ne", "PD", "find", "--seeds", "3", "--rng-seed", "2", "--format", "csv"],
        """\
index,verdict,a,b,c,seeds
0,strict,"-0.1873999036899532,0.7754246603097731,-0.6029907729646196","-0.7531367549566194,0.5551684973273435,0.35294895935349146","-0.3675848134729689,0.8740614290753409,0.3176444916991562",0
1,strict,"0.8901118359635087,0.19298839695740835,0.4128636556025263","-0.3386863612276535,-0.8159057137266562,0.46860368652686346","-0.120663671227136,0.6632845803580336,-0.7385755505737085",1
2,strict,"-0.20411632785525677,0.08495622944861718,-0.9752532818610554","0.3360192666337567,0.590731386932181,0.7335717285610823","-0.41736100119300007,0.3233903331080268,0.8492517218913695",2
""",
    ),
    "ne_find_json": (
        ["ne", "PD", "find", "--seeds", "2", "--rng-seed", "2", "--format", "json"],
        """\
{
  "command": "ne",
  "inputs": {
    "game": {
      "alpha": 7.0,
      "beta": 9.0,
      "delta": 3.0,
      "epsilon": 0.0,
      "omega": 1.0,
      "theta": 5.0,
      "type": "symmetric"
    },
    "seeds": 2,
    "subaction": "find"
  },
  "results": {
    "equilibria": [
      {
        "profile": {
          "a": [
            -0.1873999036899532,
            0.7754246603097731,
            -0.6029907729646196
          ],
          "b": [
            -0.7531367549566194,
            0.5551684973273435,
            0.35294895935349146
          ],
          "c": [
            -0.3675848134729689,
            0.8740614290753409,
            0.3176444916991562
          ]
        },
        "report": {
          "best_responses": {
            "A": [
              -0.1873999036899532,
              0.7754246603097731,
              -0.6029907729646196
            ],
            "B": [
              -0.7531367549566192,
              0.5551684973273434,
              0.3529489593534916
            ],
            "C": [
              -0.3675848134729689,
              0.8740614290753409,
              0.3176444916991562
            ]
          },
          "verdict": "strict",
          "witness": null
        },
        "seeds": [
          0
        ]
      },
      {
        "profile": {
          "a": [
            0.8901118359635087,
            0.19298839695740835,
            0.4128636556025263
          ],
          "b": [
            -0.3386863612276535,
            -0.8159057137266562,
            0.46860368652686346
          ],
          "c": [
            -0.120663671227136,
            0.6632845803580336,
            -0.7385755505737085
          ]
        },
        "report": {
          "best_responses": {
            "A": [
              0.8901118359635088,
              0.19298839695740835,
              0.41286365560252625
            ],
            "B": [
              -0.33868636122765355,
              -0.8159057137266564,
              0.4686036865268634
            ],
            "C": [
              -0.120663671227136,
              0.6632845803580336,
              -0.7385755505737085
            ]
          },
          "verdict": "strict",
          "witness": null
        },
        "seeds": [
          1
        ]
      }
    ],
    "non_converged_seeds": [],
    "note": "<note>"
  },
  "rng_seed": 2,
  "tool_version": "0.1.0"
}
""",
    ),
    "sweep_csv": (
        ["sweep", "PD", "--rotate", "A", "--plane", "xy", "--steps", "4", "--b", "1,0,0", "--c", "0,1,0", "--format", "csv"],
        """\
angle,prob_+++,prob_-++,prob_+-+,prob_++-,prob_+--,prob_-+-,prob_--+,prob_---,payoff_a,payoff_b,payoff_c
0.0,0.125,0.125,0.125,0.125,0.125,0.125,0.125,0.125,4.125,4.125,4.125
1.5707963267948966,0.0,0.25,0.25,0.25,0.0,0.0,0.0,0.25,4.0,4.0,4.0
3.141592653589793,0.12499999999999999,0.12500000000000003,0.12500000000000003,0.12500000000000003,0.12499999999999999,0.12499999999999999,0.12499999999999999,0.12500000000000003,4.125,4.125,4.125
4.71238898038469,0.25,0.0,0.0,0.0,0.25,0.25,0.25,0.0,4.25,4.25,4.25
""",
    ),
    "sweep_json": (
        ["sweep", "PD", "--rotate", "A", "--plane", "xy", "--steps", "4", "--b", "1,0,0", "--c", "0,1,0", "--format", "json"],
        """\
{"angle": 0.0, "payoffs": {"A": 4.125, "B": 4.125, "C": 4.125}, "probabilities": {"+++": 0.125, "++-": 0.125, "+-+": 0.125, "+--": 0.125, "-++": 0.125, "-+-": 0.125, "--+": 0.125, "---": 0.125}}
{"angle": 1.5707963267948966, "payoffs": {"A": 4.0, "B": 4.0, "C": 4.0}, "probabilities": {"+++": 0.0, "++-": 0.25, "+-+": 0.25, "+--": 0.0, "-++": 0.25, "-+-": 0.0, "--+": 0.0, "---": 0.25}}
{"angle": 3.141592653589793, "payoffs": {"A": 4.125, "B": 4.125, "C": 4.125}, "probabilities": {"+++": 0.12499999999999999, "++-": 0.12500000000000003, "+-+": 0.12500000000000003, "+--": 0.12499999999999999, "-++": 0.12500000000000003, "-+-": 0.12499999999999999, "--+": 0.12499999999999999, "---": 0.12500000000000003}}
{"angle": 4.71238898038469, "payoffs": {"A": 4.25, "B": 4.25, "C": 4.25}, "probabilities": {"+++": 0.25, "++-": 0.0, "+-+": 0.0, "+--": 0.25, "-++": 0.0, "-+-": 0.25, "--+": 0.25, "---": 0.0}}
""",
    ),
    "check_game_asymmetric_table": (
        ["check-game", "ASYM"],
        """\
symmetric: False
  violated: b8 = a8
""",
    ),
    "check_game_asymmetric_csv": (
        ["check-game", "ASYM", "--format", "csv"],
        """\
key,value
symmetric,false
violation,b8 = a8
""",
    ),
    "check_game_symmetric_json": (
        ["check-game", "PD", "--format", "json"],
        """\
{
  "command": "check-game",
  "inputs": {
    "game": {
      "alpha": 7.0,
      "beta": 9.0,
      "delta": 3.0,
      "epsilon": 0.0,
      "omega": 1.0,
      "theta": 5.0,
      "type": "symmetric"
    }
  },
  "results": {
    "constants": {
      "alpha": 7.0,
      "beta": 9.0,
      "delta": 3.0,
      "epsilon": 0.0,
      "omega": 1.0,
      "theta": 5.0
    },
    "symmetric": true,
    "type": "symmetric",
    "violations": []
  },
  "tool_version": "0.1.0"
}
""",
    ),
}


@pytest.mark.parametrize("name", list(SNAPSHOTS))
def test_output_snapshot(capsys, pd_file, asymmetric_file, name):
    argv, expected = SNAPSHOTS[name]
    files = {"PD": pd_file, "ASYM": asymmetric_file}
    code, out, err = run_cli(capsys, [files.get(arg, arg) for arg in argv] + ["--deterministic"])
    assert (code, err) == (0, "")
    assert out == expected.replace("<note>", cli.EQUILIBRIUM_NOTE)


def test_sweep_into_a_pipe_closed_early_exits_0_quietly(pd_file):
    # The reader stops after one line, as `ghzgames sweep ... | head -1` does.
    argv = [sys.executable, "-m", "ghzgames.cli", "sweep", pd_file, "--rotate", "A",
            "--steps", "100000", "--b=1,0,0", "--c=1,0,0"]
    with subprocess.Popen(argv, env=checkout_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            assert proc.stdout.readline().startswith(b"angle,")
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
        err = proc.stderr.read().decode()
    assert code == 0
    assert err == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_output_to_a_full_disk_exits_6_with_one_error_line(pd_file):
    argv = [sys.executable, "-m", "ghzgames.cli", "sweep", pd_file, "--rotate", "A",
            "--steps", "5", "--b=1,0,0", "--c=1,0,0"]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(argv, env=checkout_env(), stdout=full, stderr=subprocess.PIPE,
                              text=True, timeout=60)
    assert proc.returncode == cli.EXIT_OUTPUT == 6
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: cannot write output: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_error_line_into_a_full_stderr_keeps_exit_3():
    argv = [sys.executable, "-m", "ghzgames.cli", "probs", "--a=2,0,0", "--b=1,0,0", "--c=1,0,0"]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(argv, env=checkout_env(), stdout=subprocess.PIPE, stderr=full,
                              text=True, timeout=60)
    assert proc.returncode == cli.EXIT_DIRECTION == 3
    assert proc.stdout == ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_output_and_error_line_both_into_full_streams_exit_6():
    argv = [sys.executable, "-m", "ghzgames.cli", "probs", "--a=1,0,0", "--b=1,0,0", "--c=1,0,0"]
    with open("/dev/full", "w") as full:
        proc = subprocess.run(argv, env=checkout_env(), stdout=full, stderr=full, timeout=60)
    assert proc.returncode == cli.EXIT_OUTPUT == 6
