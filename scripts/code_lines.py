"""Count the code lines of each module of a package, as the ROADMAP quotes them.

    python3 scripts/code_lines.py [PACKAGE_DIR]

A code line holds at least one token other than a comment, and is not part
of a module, class or function docstring; blank lines and comment-only
lines do not count.  Each ``*.py`` file of PACKAGE_DIR (default
``src/latticircle``) gets one row with its code lines and its physical
lines, as ``wc -l`` counts them, and the last row is the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(code lines, physical lines) of one source file."""
    source = path.read_bytes()
    code: set[int] = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= docstring_lines(ast.parse(source))
    return len(code), source.count(b"\n")


def main() -> int:
    package = Path(sys.argv[1]) if len(sys.argv) > 1 else ROOT / "src" / "latticircle"
    rows = [(path.name, *count(path)) for path in sorted(package.glob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}} {'code':>6} {'wc -l':>6}")
    for name, code, lines in rows:
        print(f"{name:<{width}} {code:>6} {lines:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
