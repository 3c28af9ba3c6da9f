"""The benchmark's tracer must still find every entry point it wraps.

bench/tracer.py patches named functions on the package's modules and
classes; if one is moved or renamed, a traced benchmark run breaks.  This
test loads the tracer by path and checks that entering it replaces every
entry point and leaving it restores each one.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from ghzgames import ghz
from ghzgames.core import X_AXIS, DirectionProfile

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _attributes(tracer):
    found = {}
    for _, path in tracer.ENTRY_POINTS:
        owner, attr = tracer._owner(path)
        found[path] = owner.__dict__[attr]
    return found


def test_tracer_wraps_and_restores_every_entry_point(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    before = _attributes(tracer)
    with tracer.Tracer() as t:
        during = _attributes(tracer)
        ghz.joint_distribution(DirectionProfile(X_AXIS, X_AXIS, X_AXIS))
    after = _attributes(tracer)
    assert all(during[path] is not before[path] for path in before)
    assert all(after[path] is before[path] for path in before)
    assert t.calls["ghz.joint_distribution"] == 1
    assert t.calls["core.JointDistribution"] == 1
