"""Property: every argv drawn from the flag grammar ends in a documented exit code.

``cli.main`` runs in process on argv built from every subcommand and format,
direction vectors that are valid, of the wrong arity, malformed or extreme,
and game files that are valid, near the float limits or broken.  Each call
must return 0, 2, 3, 4 or 5 and raise nothing.
"""

import contextlib
import io
import json
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ghzgames import cli
from support import PD_GENERAL_ENTRIES

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_DIRECTION, cli.EXIT_GAME_SHAPE, cli.EXIT_SEARCH}

_FIELDS = ("alpha", "beta", "delta", "epsilon", "theta", "omega")


def _symmetric(*constants):
    return json.dumps({"type": "symmetric", **dict(zip(_FIELDS, constants))})


def _general(entries):
    return json.dumps({"type": "general", "entries": entries})


#: Game file name -> file text; "missing" names a file that is never written.
GAME_FILES = {
    "pd": _symmetric(7, 9, 3, 0, 5, 1),
    "two_pole": _symmetric(6, -4, -7, 4, -1, 6),
    "zero": _symmetric(0, 0, 0, 0, 0, 0),
    "big": _symmetric(1e308, -1e308, 1e308, -1e308, 1e308, -1e308),
    "big_negative": _symmetric(-1e308, 1e308, -1e308, 1e308, -1e308, 1e308),
    "huge": _symmetric(*(m * sys.float_info.max for m in (1, -1, 0, -1, 0, 1))),
    "general_pd": _general(PD_GENERAL_ENTRIES),
    "general_big": _general([{**e, "payoffs": [1e308, -1e308, 1e308]} for e in PD_GENERAL_ENTRIES]),
    "asymmetric": _general(PD_GENERAL_ENTRIES[:7] + [{"strategies": ["S2", "S2", "S2"], "payoffs": [1, 2, 1]}]),
    "missing_row": _general(PD_GENERAL_ENTRIES[:7]),
    "duplicate_row": _general(PD_GENERAL_ENTRIES[:7] + PD_GENERAL_ENTRIES[:1]),
    "bad_label": _general([{"strategies": ["S3", "S1", "S1"], "payoffs": [7, 7, 7]}] + PD_GENERAL_ENTRIES[1:]),
    "no_type": json.dumps({"alpha": 1}),
    "other_type": json.dumps({"type": "other"}),
    "not_json": "{not json",
    "missing": None,
}

NUMBERS = st.one_of(
    st.sampled_from(["0", "-0", "0.0", "-0.0", "1", "-1", "0.6", "0.8", "5e-324", "-5e-324",
                     "1e308", "-1e308", "nan", "inf", "-inf", "x", ""]),
    st.floats().map(repr),
)
MALFORMED = st.lists(NUMBERS, min_size=1, max_size=4).map(",".join)
CARTESIAN = st.sampled_from(["1,0,0", "0,1,0", "0,0,1", "0,0,-1", "0.6,0.8,0", "-0.0,0,1"])
SPHERICAL = st.sampled_from(["0.3,1.2", "1.5,0", "0,0", "3.1,-2"])


def _mostly(valid, other):
    """``valid`` four times in five, so that many calls get past parsing."""
    return st.integers(0, 4).flatmap(lambda k: other if k == 0 else valid)


#: Direction vectors for cartesian (False) and spherical (True) input.
VECTORS = {False: _mostly(CARTESIAN, MALFORMED), True: _mostly(SPHERICAL, MALFORMED)}


@st.composite
def argvs(draw):
    """An argv for cli.main; GAME:<name> stands for the path of a GAME_FILES entry."""
    command = draw(st.sampled_from(["probs", "payoffs", "factorize", "ne", "sweep", "check-game"]))
    argv = [command]
    if command in ("payoffs", "ne", "sweep", "check-game"):
        valid = st.sampled_from(["pd", "two_pole", "zero", "big", "big_negative", "general_pd", "general_big"])
        argv.append("GAME:" + draw(_mostly(valid, st.sampled_from(sorted(GAME_FILES)))))
    if command == "ne":
        argv.append(draw(st.sampled_from(["verify", "find"])))
    if command != "check-game":
        spherical = draw(st.integers(0, 3)) == 0
        for flag in ("--a", "--b", "--c"):
            if draw(st.integers(0, 9)):
                argv.append(f"{flag}={draw(VECTORS[spherical])}")
        if spherical:
            argv.append("--spherical")
        if draw(st.integers(0, 3)) == 0:
            argv.append("--normalize")
    if command == "probs" and draw(st.booleans()):
        argv.append("--oracle")
    if command == "payoffs" and draw(st.integers(0, 3)) == 0:
        argv.append(f"--classical={draw(st.one_of(st.just('0.3,0.5,0.9'), MALFORMED))}")
    if command == "ne":
        argv += ["--seeds", str(draw(st.integers(0, 4))), f"--rng-seed={draw(st.sampled_from([-1, 0, 5]))}"]
        if draw(st.booleans()):
            argv.append("--check-pd")
    if command == "sweep":
        argv += ["--rotate", draw(st.sampled_from(["A", "B", "C", "player=B", "D"])),
                 "--plane", draw(st.sampled_from(["xy", "yz", "xz", "ww"])),
                 "--steps", str(draw(st.integers(0, 4)))]
    argv += ["--format", draw(st.sampled_from(["table", "json", "csv"]))]
    if draw(st.booleans()):
        argv.append("--deterministic")
    return argv


@pytest.fixture(scope="module")
def game_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("games")
    for name, text in GAME_FILES.items():
        if text is not None:
            (root / f"{name}.json").write_text(text, encoding="utf-8")
    return root


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
@example(argv=["ne", "GAME:big", "find", "--seeds", "4"])
@example(argv=["ne", "GAME:big", "verify", "--a", "1,0,0", "--b", "1,0,0", "--c", "1,0,0"])
@example(argv=["ne", "GAME:huge", "verify", "--a", "0,0,-1", "--b", "0,0,1", "--c", "0,0,1", "--format", "json"])
@example(argv=["probs", "--spherical", "--a=inf,1", "--b", "0,0", "--c", "0,0"])
@example(argv=["ne", "GAME:pd", "find", "--rng-seed", "-1"])
def test_every_argv_ends_in_a_documented_exit_code(game_dir, argv):
    argv = [str(game_dir / f"{a[5:]}.json") if a.startswith("GAME:") else a for a in argv]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in EXIT_CODES
