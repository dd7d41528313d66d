"""A function's parsed ``def``, without tokenizing the rest of its file.

Both compilers in this package start from the same thing: the
``ast.FunctionDef`` of a method, with line numbers relative to its first
source line.  ``textwrap.dedent(inspect.getsource(fn))`` + ``ast.parse``
gives it, but ``inspect`` finds the end of the function by running the
pure-Python tokenizer over its text, which costs more than parsing it.

A function's extent is already visible in its indentation: it starts at
``co_firstlineno`` (its first decorator, if any) and ends before the next
line of code indented no deeper than that line.  :func:`function_def`
cuts there and lets ``ast.parse`` be the judge: the cut is kept only when
it parses to exactly one ``def`` of the code object's name, and anything
else — no lines, a lambda, an ``async def``, a stale line number, text
``textwrap.dedent`` cannot re-indent — goes to ``inspect.getsource`` as
before, so the answer (and the exception, when there is no source) is
the one ``inspect`` gives.  No bytecode positions are consulted and no
interpreter version is tested: every Python takes the same path.
"""

from __future__ import annotations

import ast
import inspect
import linecache
import textwrap
from typing import Any, List, Optional, Tuple


def _is_code(line: str) -> bool:
    stripped = line.strip()
    return bool(stripped) and not stripped.startswith("#")


def _indent(line: str) -> int:
    expanded = line.expandtabs()
    return len(expanded) - len(expanded.lstrip())


def _cut(fn: Any) -> Optional[ast.FunctionDef]:
    """The ``def`` found by indentation, or None when it cannot be trusted."""
    fn = inspect.unwrap(fn)  # as inspect.getsource does
    code = getattr(fn, "__code__", None)
    if code is None:
        return None
    linecache.checkcache(code.co_filename)
    lines: List[str] = linecache.getlines(code.co_filename, fn.__globals__)
    start = code.co_firstlineno - 1
    if not 0 <= start < len(lines):
        return None
    margin = _indent(lines[start])
    end = start
    while end < len(lines):
        # The next line of code at or left of the def ends the function —
        # unless it sits inside a multi-line string, bracket or signature,
        # in which case the text so far does not parse and the cut moves
        # on to the next such line.
        end += 1
        while end < len(lines) and not (
            _is_code(lines[end]) and _indent(lines[end]) <= margin
        ):
            end += 1
        stop = end
        while stop > start + 1 and not _is_code(lines[stop - 1]):
            stop -= 1  # comments between functions may sit left of the def
        try:
            tree = ast.parse(textwrap.dedent("".join(lines[start:stop])))
        except SyntaxError:
            continue
        node = tree.body[0] if len(tree.body) == 1 else None
        if isinstance(node, ast.FunctionDef) and node.name == code.co_name:
            return node
        break
    return None


def function_def(fn: Any) -> Tuple[Optional[ast.FunctionDef], bool]:
    """``(node, cut)``: the ``ast.FunctionDef`` of ``fn``'s source, line 1
    being its first source line, and whether the indentation cut found it
    (False: ``inspect.getsource`` did).  ``node`` is None when the source
    is not a plain ``def``; ``OSError`` / ``TypeError`` / ``SyntaxError``
    propagate from ``inspect`` and ``ast`` when there is no usable source.
    """
    node = _cut(fn)
    if node is not None:
        return node, True
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return next((n for n in tree.body if isinstance(n, ast.FunctionDef)), None), False
