#!/usr/bin/env python3
"""Count code lines — blank lines, comments and docstrings excluded.

``python tools/code_lines.py src/repro/testing/*.py`` prints one count per
file and the total: the number ROADMAP aim 2 ("net line count of
``src/repro/testing/`` should go down over the round") and the simplicity
PRs' CHANGES.md entries quote.  A directory stands for its ``*.py``
files, recursively and sorted (``python tools/code_lines.py
src/repro/testing``).  A line counts when a token other than a comment
starts or continues on it and it is not part of a module, class or
function docstring.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = (
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER,
)


def code_lines(path: str) -> int:
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (
            isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = {
        line
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type not in _NOT_CODE
        for line in range(token.start[0], token.end[0] + 1)
    }
    return len(code - docstrings)


USAGE = "usage: python tools/code_lines.py PATH [PATH ...]  (a file, or a directory of *.py files)"


def expand(paths: list) -> list:
    """``paths`` with each directory replaced by its ``*.py`` files,
    recursively and sorted."""
    files = []
    for path in paths:
        if Path(path).is_dir():
            files.extend(str(found) for found in sorted(Path(path).rglob("*.py")))
        else:
            files.append(path)
    return files


def main(paths: list) -> int:
    if not paths or paths[0] in ("-h", "--help"):
        print(USAGE, file=sys.stderr)
        return 2
    total = 0
    for path in expand(paths):
        count = code_lines(path)
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
