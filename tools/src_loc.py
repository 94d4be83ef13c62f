"""Code-only line counts of the ``src/ergosim`` modules.

    python3 tools/src_loc.py [SRC_DIR]

Prints one ``<lines>  <module>`` row per module and then the total; exits 2
when SRC_DIR holds no ``*.py`` module (a wrong path, say).  A line
counts when it is not blank, not a comment-only line and not part of a
docstring (the string that opens a module, class or function body).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """Lines of ``text`` that hold code: a token other than a comment, outside docstrings."""
    skip = docstring_lines(ast.parse(text))
    code: set[int] = set()
    ignored = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
               tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in ignored:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - skip)


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else ROOT / "src" / "ergosim"
    modules = sorted(src.glob("*.py"))
    if not modules:
        print(f"src_loc: no *.py modules in {src}", file=sys.stderr)
        return 2
    total = 0
    for path in modules:
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:5d}  {path.name}")
    print(f"{total:5d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
