"""Count the code lines of Python sources: the non-blank lines that hold
something other than a comment or a docstring.

Usage: python scripts/code_lines.py [PATH ...]

Each PATH is a file or a directory searched for `*.py` files; the default
is `src/astable` beside this script's parent.  Prints one line per file,
then the total.  A docstring is the string that opens a module, class or
function body; every other string counts as code.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The number of lines of `text` that hold a token other than a
    comment, a docstring or layout."""
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.add((first.lineno, first.col_offset))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type in _LAYOUT or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    roots = [Path(p) for p in argv] or [Path(__file__).resolve().parents[1] / "src" / "astable"]
    files = sorted(f for root in roots for f in ([root] if root.is_file() else root.rglob("*.py")))
    total = 0
    for f in files:
        n = code_lines(f.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d} {f}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
