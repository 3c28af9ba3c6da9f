"""Every public name of the package has a caller outside its own definition.

The public names are the module-level functions, classes and constants of
src/ghzgames whose names do not start with an underscore, and the public
methods of those classes.  Each must appear in src/, scripts/, bench/ or
README.md outside the lines of its own definition: a module-level name as a
whole word, a method as an attribute (``.name``).  A name only the tests use
belongs in the tests.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ghzgames"

#: Public names kept without a caller, each with its reason.
ALLOWED = {
    "Y_AXIS": "a named axis of the paper's in-plane profiles; the acceptance tests use it",
    "quantum_payoffs_inplane": "states the paper's X-Y-plane payoff formula; the acceptance tests check it",
    "classical_pure_ne": "states the paper's classical pure equilibria; the acceptance tests check it",
}


def _definitions():
    """(name, is_method, file, first line, last line) of each public definition."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                continue
            for name in names:
                if not name.startswith("_"):
                    yield name, False, path, node.lineno, node.end_lineno
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for method in node.body:
                    if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                        yield method.name, True, path, method.lineno, method.end_lineno


def _corpus():
    """Each searched file's lines."""
    paths = [p for folder in ("src", "scripts", "bench") for p in sorted((ROOT / folder).rglob("*.py"))]
    return {path: path.read_text(encoding="utf-8").splitlines() for path in [*paths, ROOT / "README.md"]}


def _has_caller(corpus, name, is_method, path, first, last) -> bool:
    pattern = re.compile((r"\." if is_method else r"\b") + re.escape(name) + r"\b")
    return any(
        pattern.search(line)
        for other, lines in corpus.items()
        for number, line in enumerate(lines, start=1)
        if not (other == path and first <= number <= last)
    )


DEFINITIONS = list(_definitions())


def test_every_public_name_outside_the_allowlist_has_a_caller():
    corpus = _corpus()
    uncalled = [
        f"{path.name}: {name}"
        for name, is_method, path, first, last in DEFINITIONS
        if name not in ALLOWED and not _has_caller(corpus, name, is_method, path, first, last)
    ]
    assert uncalled == []


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_each_allowlisted_name_is_still_defined_and_uncalled(name):
    # An entry that gains a caller, or whose definition goes, leaves the allowlist.
    corpus = _corpus()
    found = [d for d in DEFINITIONS if d[0] == name]
    assert found
    assert not any(_has_caller(corpus, *d) for d in found)
