"""Count the lines of the package that carry code.

A line carries code when it holds a token other than a comment: blank
lines, comment-only lines and the lines of module, class and function
docstrings do not count.  Other string literals, including multi-line
ones, count on every line they span.  Prints one line per file under
src/ghzgames, then the total.

Run:  python scripts/code_lines.py [PATH ...]

With no PATH it counts every .py file under src/ghzgames; a PATH that is a
directory is searched recursively.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}


def _docstring_starts(tree: ast.Module) -> set[tuple[int, int]]:
    """The (line, column) where each module, class and function docstring begins."""
    return {
        (node.body[0].lineno, node.body[0].col_offset)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that carry code."""
    docstrings = _docstring_starts(ast.parse(source))
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE or (token.type == tokenize.STRING and token.start in docstrings):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*", type=Path, default=[ROOT / "src" / "ghzgames"])
    args = parser.parse_args()
    files = sorted(
        f for path in args.paths for f in (path.rglob("*.py") if path.is_dir() else [path])
    )
    total = 0
    for f in files:
        count = code_lines(f.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {f.relative_to(ROOT) if f.is_relative_to(ROOT) else f}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main()
