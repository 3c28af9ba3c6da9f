"""Command-line front end.

Subcommands: probs, payoffs, factorize, ne, sweep, check-game.  Global flags
select the output format (table, json, csv), suppress the timestamp for
byte-reproducible reports (--deterministic), normalize direction inputs
(--normalize), and switch direction flags to spherical angles (--spherical).

Exit codes are stable: 0 ok, 2 parse error, 3 invalid direction, 4 game-shape
error, 5 search failure, 6 the output could not be written.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Sequence

from . import __version__, game as game_mod, ghz, nash
from .core import (
    OUTCOMES,
    PLAYERS,
    SYMMETRIC_CONSTANTS,
    Direction,
    DirectionProfile,
    GeneralGame,
    MixedProfile,
    NotUnitError,
    OutcomeTriple,
    PayoffTriple,
    SymmetricGame,
    SymmetryReport,
    ZeroVectorError,
    check_symmetry,
    make_direction,
    symmetric_to_general,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIRECTION = 3
EXIT_GAME_SHAPE = 4
EXIT_SEARCH = 5
EXIT_OUTPUT = 6

EQUILIBRIUM_NOTE = (
    "Verdicts are computed directly from the deviation inequalities for the "
    "affine-on-the-sphere payoffs. Under this evaluation unconstrained "
    "direction triples can satisfy every inequality (for the canonical "
    "three-player dilemma the all-x profile is a strict equilibrium and "
    "profiles such as (z, z, -z) are weak), even though it is sometimes "
    "asserted that no unconstrained equilibrium triple exists for those "
    "payoffs. This tool always reports what the inequalities yield."
)

#: game.expected_payoffs raises OverflowError when a payoff expectation leaves the float range.
_EXPECTATION_OVERFLOW = "payoffs are too large for the payoff expectation (its sum overflows)"


class CliError(Exception):
    """Error with a stable process exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _parse_floats(text: str, count: int, what: str) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != count:
        raise CliError(EXIT_PARSE, f"{what}: expected {count} comma-separated numbers, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise CliError(EXIT_PARSE, f"{what}: could not parse numbers from {text!r}") from None


def _parse_direction(text: str, normalize: bool, spherical: bool, flag: str) -> Direction:
    if spherical:
        theta, phi = _parse_floats(text, 2, flag)
        try:
            components = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
        except ValueError:  # math.sin and math.cos reject infinite angles
            raise CliError(EXIT_DIRECTION, f"{flag}: spherical angles must be finite, got {text!r}") from None
        normalize = False  # --normalize rescales cartesian input only
    else:
        components = _parse_floats(text, 3, flag)
    try:
        return make_direction(*components, normalize=normalize)
    except (NotUnitError, ZeroVectorError) as err:
        raise CliError(EXIT_DIRECTION, f"{flag}: {err}") from None


def _parse_profile(args: argparse.Namespace) -> DirectionProfile:
    missing = [flag for flag in ("a", "b", "c") if getattr(args, flag) is None]
    if missing:
        raise CliError(EXIT_PARSE, f"missing direction flag(s): {', '.join('--' + m for m in missing)}")
    return DirectionProfile(
        _parse_direction(args.a, args.normalize, args.spherical, "--a"),
        _parse_direction(args.b, args.normalize, args.spherical, "--b"),
        _parse_direction(args.c, args.normalize, args.spherical, "--c"),
    )


def load_game_file(path: str) -> tuple[GeneralGame, SymmetryReport, dict[str, Any]]:
    """Read a game definition file (UTF-8 JSON, extension-agnostic).

    Returns the general payoff table, its symmetry report (for 'symmetric'
    files, symmetric with the file's constants; for 'general' files, the
    result of check_symmetry), and an echo of the parsed definition for
    reports.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        raise CliError(EXIT_PARSE, f"cannot read game file {path!r}: {err}") from None
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as err:  # JSONDecodeError, Python's int digit limit, deep nesting
        raise CliError(EXIT_PARSE, f"game file {path!r} is not valid JSON: {err}") from None
    if not isinstance(data, dict) or "type" not in data:
        raise CliError(EXIT_PARSE, f"game file {path!r} must be an object with a 'type' field")

    if data["type"] == "symmetric":
        constants = {}
        for name in SYMMETRIC_CONSTANTS:
            try:
                constants[name] = float(data[name])
            except OverflowError as err:  # an integer beyond the float range
                raise CliError(EXIT_PARSE, f"symmetric game field {name!r}: {err}") from None
            except (KeyError, TypeError, ValueError):
                raise CliError(
                    EXIT_PARSE,
                    f"symmetric game file needs numeric fields {SYMMETRIC_CONSTANTS}",
                ) from None
        try:
            symmetric = SymmetricGame(**constants)
        except ValueError as err:
            raise CliError(EXIT_PARSE, str(err)) from None
        echo = {"type": "symmetric", **constants}
        return symmetric_to_general(symmetric), SymmetryReport(True, symmetric, ()), echo

    if data["type"] == "general":
        entries = data.get("entries")
        if not isinstance(entries, list) or len(entries) != 8:
            raise CliError(EXIT_PARSE, "general game file needs an 'entries' list of 8 records")
        table: dict[OutcomeTriple, PayoffTriple] = {}
        for record in entries:
            try:
                outcome = OutcomeTriple.from_strategies(record["strategies"])
                payoffs = PayoffTriple(*(float(v) for v in record["payoffs"]))
            except (KeyError, TypeError, ValueError, OverflowError) as err:
                raise CliError(EXIT_PARSE, f"bad game entry {record!r}: {err}") from None
            if outcome in table:
                raise CliError(EXIT_PARSE, f"duplicate strategy triple {record['strategies']!r}")
            table[outcome] = payoffs
        # Eight distinct valid outcomes are exactly the canonical eight.
        general = GeneralGame(table)
        echo = {"type": "general", "entries": entries}
        return general, check_symmetry(general), echo

    raise CliError(EXIT_PARSE, f"unknown game file type {data['type']!r}")


def _emit(args: argparse.Namespace, command: str, inputs: dict[str, Any], results: dict[str, Any],
          fields: Sequence[str], rows: Sequence[Sequence[Any]], lines: Sequence[str],
          rng_seed: int | None = None) -> int:
    """Print one report in the selected format and return EXIT_OK.

    json prints the envelope (command, inputs, results, tool version, the rng
    seed when given, and the timestamp unless --deterministic); csv prints
    ``rows`` under the header ``fields``; table prints ``lines``, then the
    timestamp unless --deterministic.
    """
    timestamp = None if args.deterministic else datetime.now(timezone.utc).isoformat()
    if args.format == "json":
        report: dict[str, Any] = {
            "command": command,
            "inputs": inputs,
            "results": results,
            "tool_version": __version__,
        }
        if rng_seed is not None:
            report["rng_seed"] = rng_seed
        if timestamp is not None:
            report["timestamp"] = timestamp
        print(json.dumps(report, indent=2, sort_keys=True))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(fields)
        writer.writerows(rows)
    else:
        for line in lines:
            print(line)
        if timestamp is not None:
            print(f"timestamp: {timestamp}")
    return EXIT_OK


def _fmt(value: float) -> str:
    """Shortest decimal form that reconstructs the exact binary value."""
    return repr(float(value))


def _vec(d: Direction, sep: str) -> str:
    return sep.join(_fmt(x) for x in d.components())


def _profile_dict(profile: DirectionProfile) -> dict[str, tuple[float, float, float]]:
    return {"a": profile.a.components(), "b": profile.b.components(), "c": profile.c.components()}


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_probs(args: argparse.Namespace) -> int:
    profile = _parse_profile(args)
    dist = ghz.joint_distribution(profile)
    inputs = {**_profile_dict(profile), "normalize": args.normalize, "oracle": args.oracle}
    results: dict[str, Any] = {"probabilities": {o.label(): dist[o] for o in OUTCOMES}}
    fields = ["outcome", "probability"]
    rows = [[o.label(), _fmt(dist[o])] for o in OUTCOMES]
    footer: list[str] = []
    if args.oracle:
        from . import oracle  # here, so that the other commands do not load numpy

        reference = oracle.joint_distribution_oracle(profile)
        max_diff = max(abs(dist[o] - reference[o]) for o in OUTCOMES)
        results["oracle_probabilities"] = {o.label(): reference[o] for o in OUTCOMES}
        results["max_abs_discrepancy"] = max_diff
        fields += ["oracle", "abs_diff"]
        for row, o in zip(rows, OUTCOMES):
            row += [_fmt(reference[o]), _fmt(abs(dist[o] - reference[o]))]
        footer.append(f"max |analytic - oracle| = {_fmt(max_diff)}")
    # The table shows the CSV columns: the first padded to 8, inner ones to 22.
    lines = [" ".join([f"{r[0]:8}", *(f"{c:22}" for c in r[1:-1]), r[-1]]) for r in [fields, *rows]]
    return _emit(args, "probs", inputs, results, fields, rows, lines + footer)


def _cmd_payoffs(args: argparse.Namespace) -> int:
    general, _, echo = load_game_file(args.game_file)
    direction_flags = [f for f in (args.a, args.b, args.c) if f is not None]
    if args.classical is not None and direction_flags:
        raise CliError(EXIT_PARSE, "give either --classical or direction flags, not both")
    if args.classical is None and len(direction_flags) != 3:
        raise CliError(EXIT_PARSE, "give either --classical x,y,z or all of --a/--b/--c")

    inputs: dict[str, Any] = {"game": echo}
    if args.classical is not None:
        x, y, z = _parse_floats(args.classical, 3, "--classical")
        try:
            mixed = MixedProfile(x, y, z)
        except ValueError as err:
            raise CliError(EXIT_PARSE, str(err)) from None
        inputs["classical"] = [mixed.x, mixed.y, mixed.z]
        mode, payoffs_of, strategy = "classical", game_mod.classical_payoffs, mixed
    else:
        profile = _parse_profile(args)
        inputs.update(_profile_dict(profile))
        mode, payoffs_of, strategy = "quantum", game_mod.quantum_payoffs, profile
    try:
        payoffs = payoffs_of(general, strategy)
    except OverflowError:
        raise CliError(EXIT_PARSE, _EXPECTATION_OVERFLOW) from None

    shown = {p: payoffs.for_player(p) for p in PLAYERS}
    results = {"mode": mode, "payoffs": shown}
    rows = [[p, _fmt(v)] for p, v in shown.items()]
    lines = [f"{mode} payoffs"] + [f"  {p}: {v}" for p, v in rows]
    return _emit(args, "payoffs", inputs, results, ["player", "payoff"], rows, lines)


def _cmd_factorize(args: argparse.Namespace) -> int:
    profile = _parse_profile(args)
    report_obj = game_mod.factorize(profile)
    s = report_obj.solution
    results: dict[str, Any] = {
        "consistent": report_obj.consistent,
        "solution": None if s is None else [s.x, s.y, s.z],
        "residuals": dict(report_obj.residuals),
        "violated_equations": [list(v) for v in report_obj.violated_equations],
    }
    violated = {eq for eq, _ in report_obj.violated_equations}
    rows = [[eq, _fmt(r), str(eq in violated).lower()] for eq, r in report_obj.residuals.items()]
    lines = [
        f"consistent: {report_obj.consistent}",
        "solution: none" if s is None else f"solution: x={_fmt(s.x)} y={_fmt(s.y)} z={_fmt(s.z)}",
        "equation residuals:",
    ]
    lines += [f"  {eq}: {r}{'  VIOLATED' if eq in violated else ''}" for eq, r, _ in rows]
    fields = ["equation", "residual", "violated"]
    return _emit(args, "factorize", _profile_dict(profile), results, fields, rows, lines)


def _require_symmetric(args: argparse.Namespace) -> tuple[SymmetricGame, dict[str, Any]]:
    _, symmetry, echo = load_game_file(args.game_file)
    if symmetry.game is None:
        raise CliError(
            EXIT_GAME_SHAPE,
            "equilibrium analysis needs a symmetric game; violated: " + "; ".join(symmetry.violations),
        )
    return symmetry.game, echo


def _ne_report_dict(report: nash.NEReport) -> dict[str, Any]:
    witness = report.witness
    return {
        "verdict": report.verdict,
        "best_responses": {
            player: None if d is None else d.components()
            for player, d in report.best_responses.items()
        },
        "witness": None if witness is None else {
            "player": witness.player,
            "direction": witness.direction.components(),
            "gain": witness.gain,
        },
    }


def _cmd_ne(args: argparse.Namespace) -> int:
    symmetric, echo = _require_symmetric(args)
    inputs: dict[str, Any] = {"game": echo, "subaction": args.subaction}
    results: dict[str, Any] = {"note": EQUILIBRIUM_NOTE}
    lines: list[str] = []
    rows: list[list[Any]] = []
    rng_seed: int | None = None

    if args.check_pd:
        verdict = nash.check_pd(symmetric)
        results["pd_check"] = {"passed": verdict.passed, "violated": list(verdict.violated)}
        lines.append(f"dilemma conditions: {'pass' if verdict.passed else 'fail'}")
        lines += [f"  violated: {name}" for name in verdict.violated]

    if args.subaction == "verify":
        profile = _parse_profile(args)
        inputs.update(_profile_dict(profile))
        ne_report = nash.verify_ne(symmetric, profile)
        results["report"] = _ne_report_dict(ne_report)
        lines.append(f"verdict: {ne_report.verdict}")
        rows.append(["verdict", ne_report.verdict])
        for player, d in ne_report.best_responses.items():
            lines.append(f"  best response {player}: " + ("indifferent" if d is None else f"({_vec(d, ', ')})"))
            rows.append([f"best_response_{player}", "indifferent" if d is None else _vec(d, ",")])
        w = ne_report.witness
        if w is not None:
            lines.append(f"  witness: player {w.player} deviates to ({_vec(w.direction, ', ')}) for gain {_fmt(w.gain)}")
            rows.append([f"witness_{w.player}", f"{_vec(w.direction, ',')} gain {_fmt(w.gain)}"])
        fields = ["key", "value"]
    else:  # find
        if args.seeds < 1:
            raise CliError(EXIT_PARSE, "--seeds must be >= 1")
        if args.rng_seed < 0:
            raise CliError(EXIT_PARSE, "--rng-seed must be >= 0")
        rng_seed = args.rng_seed
        inputs["seeds"] = args.seeds
        search = nash.find_ne(symmetric, args.seeds, args.rng_seed)
        if not search.equilibria:
            raise CliError(EXIT_SEARCH, "no seed converged to a fixed point")
        # A search report can be large, so only the selected format is built.
        if args.format == "json":
            results["equilibria"] = [
                {"profile": _profile_dict(eq.profile), "report": _ne_report_dict(eq.report), "seeds": list(eq.seeds)}
                for eq in search.equilibria
            ]
            results["non_converged_seeds"] = list(search.non_converged)
        elif args.format == "csv":
            for index, eq in enumerate(search.equilibria):
                a, b, c = eq.profile.a, eq.profile.b, eq.profile.c
                rows.append([index, eq.report.verdict, _vec(a, ","), _vec(b, ","), _vec(c, ","),
                             " ".join(str(s) for s in eq.seeds)])
        else:
            lines.append(f"equilibria found: {len(search.equilibria)}")
            for index, eq in enumerate(search.equilibria):
                a, b, c = eq.profile.a, eq.profile.b, eq.profile.c
                lines.append(
                    f"  [{index}] {eq.report.verdict}  a=({_vec(a, ', ')}) b=({_vec(b, ', ')}) "
                    f"c=({_vec(c, ', ')}) seeds={list(eq.seeds)}"
                )
            if search.non_converged:
                lines.append(f"non-converged seeds: {list(search.non_converged)}")
        fields = ["index", "verdict", "a", "b", "c", "seeds"]

    lines.append(f"note: {EQUILIBRIUM_NOTE}")
    return _emit(args, "ne", inputs, results, fields, rows, lines, rng_seed=rng_seed)


_PLANE_BUILDERS = {
    "xy": lambda t: (math.cos(t), math.sin(t), 0.0),
    "yz": lambda t: (0.0, math.cos(t), math.sin(t)),
    "xz": lambda t: (math.cos(t), 0.0, math.sin(t)),
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    general, _, _ = load_game_file(args.game_file)
    player = args.rotate
    if player.startswith("player="):
        player = player[len("player="):]
    if player not in PLAYERS:
        raise CliError(EXIT_PARSE, f"--rotate must name player A, B, or C, got {args.rotate!r}")
    if args.plane not in _PLANE_BUILDERS:
        raise CliError(EXIT_PARSE, f"--plane must be one of xy, yz, xz, got {args.plane!r}")
    if args.steps < 1:
        raise CliError(EXIT_PARSE, "--steps must be >= 1")

    directions: dict[str, Direction] = {}
    for name, flag_value in zip(PLAYERS, (args.a, args.b, args.c)):
        if name == player:
            continue
        if flag_value is None:
            raise CliError(EXIT_PARSE, f"missing --{name.lower()} for the fixed player {name}")
        directions[name] = _parse_direction(flag_value, args.normalize, args.spherical, f"--{name.lower()}")

    # Records are written as they are computed, so memory stays flat in --steps.
    build = _PLANE_BUILDERS[args.plane]
    labels = [o.label() for o in OUTCOMES]
    if args.format != "json":  # csv is also the table rendering of a record stream
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["angle", *(f"prob_{label}" for label in labels), "payoff_a", "payoff_b", "payoff_c"])
    try:
        for step in range(args.steps):
            angle = 2.0 * math.pi * step / args.steps
            directions[player] = Direction(*build(angle))
            profile = DirectionProfile(*(directions[p] for p in PLAYERS))
            dist = ghz.joint_distribution(profile)
            payoffs = game_mod.expected_payoffs(general, dist.values)
            if args.format == "json":
                print(json.dumps({
                    "angle": angle,
                    "probabilities": dict(zip(labels, dist.values)),
                    "payoffs": {p: payoffs.for_player(p) for p in PLAYERS},
                }, sort_keys=True))
            else:
                # csv.writer writes a float as its repr, which is what _fmt gives.
                writer.writerow([angle, *dist.values, payoffs.pi_a, payoffs.pi_b, payoffs.pi_c])
    except OverflowError:  # records already printed stay printed
        raise CliError(EXIT_PARSE, _EXPECTATION_OVERFLOW) from None
    return EXIT_OK


def _cmd_check_game(args: argparse.Namespace) -> int:
    _, report_obj, echo = load_game_file(args.game_file)
    symmetric = report_obj.game
    constants = None if symmetric is None else dict(zip(SYMMETRIC_CONSTANTS, symmetric.constants()))
    results: dict[str, Any] = {
        "type": echo["type"],
        "symmetric": report_obj.symmetric,
        "constants": constants,
        "violations": list(report_obj.violations),
    }
    rows = [["symmetric", str(report_obj.symmetric).lower()]]
    lines = [f"symmetric: {report_obj.symmetric}"]
    if constants is not None:
        rows += [[k, _fmt(v)] for k, v in constants.items()]
        lines += [f"  {k} = {_fmt(v)}" for k, v in constants.items()]
    rows += [["violation", v] for v in report_obj.violations]
    lines += [f"  violated: {v}" for v in report_obj.violations]
    return _emit(args, "check-game", {"game": echo}, results, ["key", "value"], rows, lines)


# ---------------------------------------------------------------------------
# parser wiring


def _add_direction_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--a", help="player A direction as x,y,z (or theta,phi with --spherical)")
    parser.add_argument("--b", help="player B direction")
    parser.add_argument("--c", help="player C direction")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("table", "json", "csv"), default="table")
    parser.add_argument("--deterministic", action="store_true",
                        help="omit the timestamp so identical runs are byte-identical")
    parser.add_argument("--normalize", action="store_true",
                        help="rescale direction inputs to unit norm")
    parser.add_argument("--spherical", action="store_true",
                        help="read direction flags as theta,phi angles")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghzgames",
        description="Three-player direction games on a shared GHZ state",
    )
    parser.add_argument("--version", action="version", version=f"ghzgames {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    probs = sub.add_parser("probs", help="eight-outcome joint distribution for a profile")
    _add_direction_flags(probs)
    probs.add_argument("--oracle", action="store_true",
                       help="add the brute-force 3-qubit column and the max discrepancy")
    _add_common_flags(probs)
    probs.set_defaults(handler=_cmd_probs)

    payoffs = sub.add_parser("payoffs", help="expected payoffs for a profile or mixed strategies")
    payoffs.add_argument("game_file", help="game definition file (JSON)")
    _add_direction_flags(payoffs)
    payoffs.add_argument("--classical", help="mixed strategies as x,y,z instead of directions")
    _add_common_flags(payoffs)
    payoffs.set_defaults(handler=_cmd_payoffs)

    factorize = sub.add_parser("factorize", help="test whether the distribution factorizes")
    _add_direction_flags(factorize)
    _add_common_flags(factorize)
    factorize.set_defaults(handler=_cmd_factorize)

    ne = sub.add_parser("ne", help="verify a profile or search for equilibria")
    ne.add_argument("game_file", help="game definition file (must be symmetric)")
    ne.add_argument("subaction", choices=("verify", "find"))
    _add_direction_flags(ne)
    ne.add_argument("--seeds", type=int, default=64, help="random starts for find")
    ne.add_argument("--rng-seed", type=int, default=0, dest="rng_seed")
    ne.add_argument("--check-pd", action="store_true", dest="check_pd",
                    help="prefix the report with the generalized-dilemma check")
    _add_common_flags(ne)
    ne.set_defaults(handler=_cmd_ne)

    sweep = sub.add_parser("sweep", help="rotate one player through a plane, one record per step")
    sweep.add_argument("game_file", help="game definition file (JSON)")
    sweep.add_argument("--rotate", required=True, help="player to rotate: A, B, C (or player=A)")
    sweep.add_argument("--plane", default="xy", help="rotation plane: xy, yz, xz")
    sweep.add_argument("--steps", type=int, required=True, help="samples over [0, 2*pi)")
    _add_direction_flags(sweep)
    _add_common_flags(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    check = sub.add_parser("check-game", help="validate a game file and report its symmetry")
    check.add_argument("game_file", help="game definition file (JSON)")
    _add_common_flags(check)
    check.set_defaults(handler=_cmd_check_game)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    try:
        return args.handler(args)
    except CliError as err:
        _print_error(str(err))
        return err.code


def _silence(stream: Any) -> None:
    """Point a stream at devnull, so the interpreter's final flush of it cannot fail."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, stream.fileno())
    finally:
        os.close(devnull)


def _print_error(message: str) -> None:
    """Write one ``error:`` line to stderr; a stderr that cannot take it drops it quietly."""
    try:
        print(f"error: {message}", file=sys.stderr)
    except OSError:
        _silence(sys.stderr)


def app() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early: that ends the run, not an error.
        _silence(sys.stdout)
        code = EXIT_OK
    except OSError as err:
        # The output could not be written, for instance to a full disk.
        _print_error(f"cannot write output: {err}")
        _silence(sys.stdout)
        code = EXIT_OUTPUT
    sys.exit(code)


if __name__ == "__main__":
    app()
