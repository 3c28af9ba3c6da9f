"""Every public name of the package has a caller outside its own definition.

The public names are the module-level functions, classes and constants of
src/ghzgames whose names do not start with an underscore, and the public
methods of those classes.  Each must appear in the code of src/, scripts/ or
bench/, or anywhere in README.md, outside the lines of its own definition: a
module-level name as a whole word, a method as an attribute (``.name``).  In
the Python files, ``#`` comments and module, class and function docstrings
are not code, the same rule as scripts/code_lines.py.  A name only the tests
use belongs in the tests.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ghzgames"

#: Public names kept without a caller, each with its reason.
ALLOWED = {
    "Y_AXIS": "a named axis of the paper's in-plane profiles; the acceptance tests use it",
    "classical_pure_ne": "states the paper's classical pure equilibria; the acceptance tests check it",
    "case_a_constraints": "states the paper's in-plane Case A analysis; the acceptance tests check it",
    "case_b_check": "states the paper's in-plane Case B analysis; the acceptance tests check it",
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


def _code_only(source: str) -> list[str]:
    """The lines of a Python source with its comments and docstrings blanked out."""
    docstrings = {
        (node.body[0].lineno, node.body[0].col_offset)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    lines = io.StringIO(source).readlines()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT or (token.type == tokenize.STRING and token.start in docstrings):
            (first, start), (last, end) = token.start, token.end
            for number in range(first, last + 1):
                line = lines[number - 1]
                lo, hi = (start if number == first else 0), (end if number == last else len(line))
                lines[number - 1] = line[:lo] + " " * (hi - lo) + line[hi:]
    return lines


def _corpus():
    """Each searched file's lines, code only for the Python files."""
    paths = [p for folder in ("src", "scripts", "bench") for p in sorted((ROOT / folder).rglob("*.py"))]
    corpus = {path: _code_only(path.read_text(encoding="utf-8")) for path in paths}
    corpus[ROOT / "README.md"] = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    return corpus


def _has_caller(corpus, name, is_method, path, first, last) -> bool:
    pattern = re.compile((r"\." if is_method else r"\b") + re.escape(name) + r"\b")
    return any(
        pattern.search(line)
        for other, lines in corpus.items()
        for number, line in enumerate(lines, start=1)
        if not (other == path and first <= number <= last)
    )


DEFINITIONS = list(_definitions())
CORPUS = _corpus()


def test_every_public_name_outside_the_allowlist_has_a_caller():
    uncalled = [
        f"{path.name}: {name}"
        for name, is_method, path, first, last in DEFINITIONS
        if name not in ALLOWED and not _has_caller(CORPUS, name, is_method, path, first, last)
    ]
    assert uncalled == []


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_each_allowlisted_name_is_still_defined_and_uncalled(name):
    # An entry that gains a caller, or whose definition goes, leaves the allowlist.
    found = [d for d in DEFINITIONS if d[0] == name]
    assert found
    assert not any(_has_caller(CORPUS, *d) for d in found)


def test_a_name_only_comments_and_docstrings_mention_is_uncalled():
    definer, other = ROOT / "src" / "defines.py", ROOT / "src" / "mentions.py"
    mentions = (
        '"""Module docstring: helper()."""\n'
        "def f():\n"
        '    """Function docstring: helper() and obj.method()."""\n'
        "    return 1  # a comment: helper() and obj.method()\n"
        'NOTE = "a string that is not a docstring"\n'
    )
    corpus = {definer: _code_only("def helper():\n    pass\n"), other: _code_only(mentions)}
    assert not _has_caller(corpus, "helper", False, definer, 1, 2)
    assert not _has_caller(corpus, "method", True, definer, 1, 2)
    corpus[other] = _code_only(mentions + "VALUE = helper() + obj.method()\n")
    assert _has_caller(corpus, "helper", False, definer, 1, 2)
    assert _has_caller(corpus, "method", True, definer, 1, 2)
