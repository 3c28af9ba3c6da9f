"""Spans around the package's public entry points, recorded from outside.

The tracer replaces each entry point with a wrapper on its module or class,
so calls between modules (cli -> ghz, game -> ghz, find_ne -> best_response)
are seen as long as the caller looks the name up at call time.  Spans are
folded into per-entry call counts and self time as they close and kept in
memory; self time is a span's duration minus the time of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

#: (metric name, attribute path under ghzgames).  The two core entries are
#: the validation hooks every Direction and JointDistribution passes through.
ENTRY_POINTS = (
    ("cli.main", "cli.main"),
    ("cli.load_game_file", "cli.load_game_file"),
    ("core.Direction", "core.Direction.__post_init__"),
    ("core.JointDistribution", "core.JointDistribution.__init__"),
    ("ghz.joint_distribution", "ghz.joint_distribution"),
    ("ghz.marginal_single", "ghz.marginal_single"),
    ("game.quantum_payoffs", "game.quantum_payoffs"),
    ("game.factorize", "game.factorize"),
    ("nash.find_ne", "nash.find_ne"),
    ("nash.best_response", "nash.best_response"),
    ("nash.verify_ne", "nash.verify_ne"),
    ("oracle.joint_distribution_oracle", "oracle.joint_distribution_oracle"),
)
ENTRY_NAMES = tuple(name for name, _ in ENTRY_POINTS)
LAYERS = ("cli", "core", "ghz", "game", "nash", "oracle")


def _owner(path: str) -> tuple[object, str]:
    module, *inner, attr = path.split(".")
    owner = importlib.import_module(f"ghzgames.{module}")
    for name in inner:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Install with `with Tracer() as t:`; read t.calls and t.self_s after."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self._open: list[list[float]] = []  # child time of each open span
        self._originals: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        calls, self_s, open_spans = self.calls, self.self_s, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            open_spans.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                open_spans.pop()
                calls[name] += 1
                self_s[name] += elapsed - children[0]
                if open_spans:
                    open_spans[-1][0] += elapsed

        return span

    def __enter__(self) -> "Tracer":
        for name, path in ENTRY_POINTS:
            owner, attr = _owner(path)
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()
