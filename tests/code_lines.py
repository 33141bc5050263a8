"""Code lines of each ``src/bnbench`` module, and their total.

Run with

    python tests/code_lines.py

A code line holds some token that is neither a comment nor a docstring:
blank lines, comment-only lines and every line of a module, class or
function docstring are not counted.  A line of a multi-line statement or
string counts once.  Each line printed is ``<count> <module>``, the last
``<count> total``.  Not a pytest module.
"""

from __future__ import annotations

import ast
import io
import os
import tokenize

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "bnbench")
SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.Module) -> set:
    """Line numbers spanned by the docstrings of the module and of its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main():
    total = 0
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fp:
                count = code_lines(fp.read())
            total += count
            print("%d %s" % (count, name))
    print("%d total" % total)


if __name__ == "__main__":
    main()
