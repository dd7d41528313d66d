"""A function's parsed ``def`` and a class's line count, without
tokenizing the rest of their file.

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

A class has no code object to say where it starts, so ``inspect`` parses
its whole module to find it, on every call.  :func:`class_lines` parses
each file once per process instead and keeps only the spans of the
classes in it, by qualified name; the line count it returns is
``len(inspect.getsource(cls).splitlines())``, comment rule included.  A
class the index cannot place unambiguously goes to ``inspect``.
"""

from __future__ import annotations

import ast
import inspect
import linecache
import textwrap
from typing import Any, Dict, List, Optional, Tuple


def _is_code(line: str) -> bool:
    stripped = line.strip()
    return bool(stripped) and not stripped.startswith("#")


def _indent(line: str) -> int:
    expanded = line.expandtabs()
    return len(expanded) - len(expanded.lstrip())


def parse_def(text: str) -> Optional[ast.FunctionDef]:
    """The first top-level plain ``def`` that ``text`` parses to: for the
    text :func:`function_source` returns, a tree equal to its node."""
    return next((n for n in ast.parse(text).body if isinstance(n, ast.FunctionDef)), None)


def _cut(fn: Any) -> Optional[Tuple[str, ast.FunctionDef]]:
    """The ``def`` found by indentation, with the text it parsed from, or
    None when it cannot be trusted."""
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
        text = textwrap.dedent("".join(lines[start:stop]))
        try:
            tree = ast.parse(text)
        except SyntaxError:
            continue
        node = tree.body[0] if len(tree.body) == 1 else None
        if isinstance(node, ast.FunctionDef) and node.name == code.co_name:
            return text, node
        break
    return None


def function_source(fn: Any) -> Tuple[str, Optional[ast.FunctionDef], bool]:
    """``(text, node, cut)``: :func:`function_def`'s answer with the text
    it parsed.  ``parse_def(text)`` gives an equal tree again, positions
    included, so a caller that needs a fresh copy need not keep this one."""
    found = _cut(fn)
    if found is not None:
        return found[0], found[1], True
    text = textwrap.dedent(inspect.getsource(fn))
    return text, parse_def(text), False


def function_def(fn: Any) -> Tuple[Optional[ast.FunctionDef], bool]:
    """``(node, cut)``: the ``ast.FunctionDef`` of ``fn``'s source, line 1
    being its first source line, and whether the indentation cut found it
    (False: ``inspect.getsource`` did).  ``node`` is None when the source
    is not a plain ``def``; ``OSError`` / ``TypeError`` / ``SyntaxError``
    propagate from ``inspect`` and ``ast`` when there is no usable source.
    """
    _text, node, cut = function_source(fn)
    return node, cut


# ---------------------------------------------------------------------------
# Classes: one parse per file
# ---------------------------------------------------------------------------
#: What the class index did in this process: ``class_files_parsed`` is
#: one per ``ast.parse`` of a file, ``class_fallbacks`` one per class it
#: left to ``inspect``.  Exact: the same classes give the same counts.
counters: Dict[str, int] = {"class_files_parsed": 0, "class_fallbacks": 0}

# filename -> (the linecache lines indexed, qualname -> (first, last) line,
# 1-based, or None when the name is defined more than once); the index is
# None when the file does not parse.  The lines are the staleness check:
# linecache hands out a new list when the file changed on disk.
_Spans = Dict[str, Optional[Tuple[int, int]]]
_class_index: Dict[str, Tuple[List[str], Optional[_Spans]]] = {}


def _leading(line: str) -> int:
    """The column, in characters, the tokenizer gives a line's first token."""
    return len(line) - len(line.lstrip(" \t\f"))


def _span(node: ast.ClassDef, lines: List[str]) -> Tuple[int, int]:
    """The lines ``inspect.getsource`` returns for ``node``: from its first
    decorator to its last statement, then on over blank lines and comment
    lines, the comments kept when indented at least as deep as the body
    (``inspect.BlockFinder``'s rule), up to the next line of code."""
    first = node.decorator_list[0].lineno if node.decorator_list else node.lineno
    last = node.end_lineno or node.lineno
    head = node.body[0]
    indent = _leading(lines[head.lineno - 1])
    # A body on the header's own line has no INDENT: no comment joins it.
    body_col = indent if indent == head.col_offset else None
    for number in range(last + 1, len(lines) + 1):
        line = lines[number - 1]
        rest = line.lstrip(" \t\f")
        if not rest or rest[0] in "\r\n":
            continue
        if rest[0] != "#":
            break
        if body_col is not None and _leading(line) >= body_col:
            last = number
    return first, last


def _index(lines: List[str]) -> Optional[_Spans]:
    """Every class of a module by qualname, named as ``inspect``'s class
    finder names it (a function scope adds ``<locals>``)."""
    counters["class_files_parsed"] += 1
    try:
        tree = ast.parse("".join(lines))
    except (SyntaxError, ValueError):
        return None  # inspect raises what it raises
    spans: _Spans = {}
    todo: List[Tuple[ast.AST, str]] = [(tree, "")]
    while todo:
        node, prefix = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                continue  # no class statement inside an expression
            if isinstance(child, ast.ClassDef):
                name = prefix + child.name
                spans[name] = None if name in spans else _span(child, lines)
                todo.append((child, name + "."))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                todo.append((child, f"{prefix}{child.name}.<locals>."))
            else:
                todo.append((child, prefix))
    return spans


def _indexed_count(cls: type) -> Optional[int]:
    """The class index's line count for ``cls``; None when it cannot
    place the class (no file, a file that does not parse, a name the
    file does not define, or defines twice)."""
    try:
        filename = inspect.getsourcefile(cls)
    except (OSError, TypeError):
        return None
    if not filename:
        return None
    linecache.checkcache(filename)
    module = inspect.getmodule(cls, filename)
    lines = linecache.getlines(filename, module.__dict__ if module else None)
    if not lines:
        return None
    entry = _class_index.get(filename)
    if entry is None or entry[0] is not lines:
        entry = _class_index[filename] = (lines, _index(lines))
    span = (entry[1] or {}).get(cls.__qualname__)
    if span is None:
        return None
    return len("".join(lines[span[0] - 1:span[1]]).splitlines())


def class_lines(cls: type) -> Tuple[int, bool]:
    """``(count, indexed)``: ``len(inspect.getsource(cls).splitlines())``
    and whether the class index answered (False: ``inspect`` did).
    ``OSError`` / ``TypeError`` / ``SyntaxError`` propagate from
    ``inspect`` when there is no usable source."""
    count = _indexed_count(cls)
    if count is not None:
        return count, True
    counters["class_fallbacks"] += 1
    return len(inspect.getsource(cls).splitlines()), False
