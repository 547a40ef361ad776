"""Count the code lines of each src/directwf module and their total.

Usage: python tests/code_lines.py

A code line is a line that is not blank, is not only a comment and is not
part of a module, class or function docstring. A line holding code and a
trailing comment counts. The name does not start with test_, so pytest does
not collect this script.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "directwf"


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    skipped = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        documented = isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        )
        if documented and body and isinstance(body[0], ast.Expr):
            value = body[0].value
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                skipped.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                          tokenize.DEDENT, tokenize.ENDMARKER):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skipped)


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:5d}  {path.name}")
    print(f"{total:5d}  total")


if __name__ == "__main__":
    main()
