"""Count the lines of Python source that hold code.

Usage:

    python3 scripts/code_lines.py SRC...

reads every ``*.py`` file under each SRC (a file or a directory) and prints,
per module and then in total, the number of lines that hold code: lines
that are not blank, not comment-only and not inside a module, class or
function docstring.  ``wc -l`` counts all three, so a change that deletes
comments or docstrings shows there but not here.  Docstrings are found by
``ast``, and every other line is classified by its ``tokenize`` tokens: a
line holds code when a token other than a comment, a newline, an indent or
a dedent starts, ends or spans it.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

# the token types that put no code on a line
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of lines of the file at path that hold code."""
    text = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(text, filename=str(path)))
    lines = set()
    with path.open("rb") as fh:
        for token in tokenize.tokenize(fh.readline):
            if token.type in _LAYOUT:
                continue
            spanned = range(token.start[0], token.end[0] + 1)
            if token.type == tokenize.STRING and all(line in docstrings for line in spanned):
                continue
            lines.update(spanned)
    return len(lines)


def main(argv: list) -> int:
    if not argv or any(arg.startswith("-") for arg in argv):
        print("usage: python3 scripts/code_lines.py SRC...", file=sys.stderr)
        return 2
    paths = []
    for arg in map(Path, argv):
        paths.extend(sorted(arg.rglob("*.py")) if arg.is_dir() else [arg])
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(f"{count:>7} {path}")
    print(f"{total:>7} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
