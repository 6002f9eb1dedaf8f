"""Count the lines of every module of src/metriclab: total and code lines.

A code line holds a token other than a comment outside any module, class or
function docstring; blank lines, comment lines and docstring lines are not
code.  Prints one row per file and their sum.  Standard library only.

    python tools/src_lines.py [SRC_DIR]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers of the module, class and function docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(total lines, code lines) of one Python file."""
    text = path.read_text()
    doc = docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - doc)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    src = Path(args[0]) if args else Path(__file__).resolve().parents[1] / "src" / "metriclab"
    total = code = 0
    print(f"{'file':24s} {'lines':>6s} {'code':>6s}")
    for path in sorted(src.glob("*.py")):
        t, c = count(path)
        total, code = total + t, code + c
        print(f"{path.name:24s} {t:6d} {c:6d}")
    print(f"{'total':24s} {total:6d} {code:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
