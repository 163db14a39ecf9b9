"""Count the code lines of the package, the figure the ROADMAP quotes.

    python3 tools/code_lines.py

A line of src/convexcodes/**/*.py is a code line when it holds a token
other than a comment, a line break or an indentation change, docstrings
not counted.  A docstring is the leading string of a module, class or
function.  A string that spans lines and is not a docstring counts each of
its lines.  Prints the count of each file, in path order, and the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "convexcodes"
# tokens that hold no code
LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}
_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstrings(tree) -> set:
    """The (line, column) where each docstring starts."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, _OWNERS) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.add((first.lineno, first.col_offset))
    return out


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docstrings = _docstrings(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in LAYOUT or token.start in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main() -> int:
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.relative_to(SRC).as_posix()}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
