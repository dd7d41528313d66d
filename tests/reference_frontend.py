"""Test-only oracle: the frontend as it lowered before semi-naive replay.

``ReferenceFrontend`` overrides the two things PR 17 changed with the
bodies they had at its parent commit, verbatim: every method is lowered
by a fresh ``_Lowerer`` on every refinement pass (no log, no replay, no
reused ``MethodDecl``), and every function's tree comes from
``inspect.getsource``.  Pass structure, lookup rule, convergence test and
class/method order are inherited, so any difference in ``repr(build())``
is a difference the replay or the source cut introduced.
``tests/test_frontend_replay.py`` compares the two.
"""

import ast
import inspect
import textwrap

from repro.analysis.frontend import PythonFrontend, _Lowerer


def getsource_function_def(func):
    """The parse the source cut must reproduce (None: not a plain def)."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    return next((n for n in tree.body if isinstance(n, ast.FunctionDef)), None)


class ReferenceFrontend(PythonFrontend):
    def _function_def(self, func):
        node = self._function_defs.get(func)
        if node is None:
            source = textwrap.dedent(inspect.getsource(func))
            node = ast.parse(source).body[0]
            assert isinstance(node, ast.FunctionDef)
            self._function_defs[func] = node
        return node

    def _lower_method(self, owner, func, *, is_handler, payload_type=None):
        self.counters["methods_lowered"] += 1
        return _Lowerer(
            self,
            owner,
            self._function_def(func),
            func.__globals__,
            is_handler=is_handler,
            payload_type=payload_type,
        ).lower()
