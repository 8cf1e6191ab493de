#!/usr/bin/env python3
"""Count the physical lines and the code lines of each module in ``src/spikecal``.

A code line is one that holds a token of code: blank lines, comment-only
lines and the lines of docstrings (the leading string of a module, class or
function) do not count. A line target stated in code lines therefore cannot
be met by deleting comments or docstrings.

    python3 scripts/code_lines.py [SRC_DIR]

SRC_DIR defaults to this checkout's ``src/spikecal``. Prints one row per
module, sorted by name, then the total.
"""

import argparse
import ast
import io
import os
import sys
import tokenize

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_lines(source: str) -> tuple[int, int]:
    """``(physical, code)`` line counts of one Python source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("src", nargs="?", default=os.path.join(ROOT, "src", "spikecal"))
    args = ap.parse_args(argv)
    names = sorted(n for n in os.listdir(args.src) if n.endswith(".py"))
    if not names:
        sys.exit(f"code_lines: no Python modules in {args.src}")
    total_physical = total_code = 0
    print(f"{'module':<16} {'lines':>6} {'code':>6}")
    for name in names:
        with open(os.path.join(args.src, name), encoding="utf-8") as f:
            physical, code = count_lines(f.read())
        total_physical += physical
        total_code += code
        print(f"{name:<16} {physical:>6} {code:>6}")
    print(f"{'total':<16} {total_physical:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
