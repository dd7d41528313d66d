"""Compiling machine handlers into resumable generator coroutines.

Primitives are calls; a carrier is the control transfer.  The
single-thread ``workers="inline"`` carrier (:mod:`repro.testing.runtime`)
runs every machine of a controlled execution on one thread, so a
scheduling decision is a plain function call instead of an OS thread
hand-off.  That requires machine actions to be *suspendable*: when the
strategy picks another machine mid-action, the current action's frame
must pause exactly at the scheduling point and resume later.  CPython has
no stackful coroutines, but it has generators — and every scheduling
point in this programming model is syntactically visible: it is a call to
``self.send(...)`` or ``self.create_machine(...)`` (``nondet`` consults
the strategy but never transfers control, so it stays a plain call).

This module therefore *reshapes* handler methods into generator
coroutines at class granularity, once, lazily, the first time a machine
class runs on the inline carrier:

1. Every plain method reachable from the class's entry/exit/action
   handlers is analysed for scheduling calls; a method is **switchable**
   when it calls a scheduling primitive directly or calls another
   switchable method (the transitive closure over ``self.helper(...)``
   call sites).
2. Each switchable method's AST is rewritten (``c`` is a local the
   method does not use)::

       self.send(t, e)
         -> (yield c) if (c := self._runtime._point(self._id, t, e))
                      is not None else None
       self.create_machine(C, p)
         -> (self._runtime._spawn(C, p),
             (yield c) if (c := self._runtime._point(self._id))
                       is not None else None)[0]
       self.helper(...)
         -> yield from self._inline__helper(...)

   and recompiled against the original function's globals and closure
   cells, so event classes, module imports and test-local names resolve
   exactly as they did in the source method.
3. The compiled coroutines are linked into the class's one per-state
   dispatch table, in place: the coroutine slot of an action's
   ``StateInfo.dispatch`` entry, and ``StateInfo.entry_co`` /
   ``exit_co`` next to ``entry_fn`` / ``exit_fn``.  ``Machine._start`` /
   ``_step`` read those slots only on a machine the inline carrier marked
   suspendable, so the pooled threads, CHESS, the production runtime and
   monitors keep calling the plain handlers of a compiled class.

A compiled handler *calls* the runtime at its scheduling primitives —
the same scheduling point the pooled threads reach through
``Machine.send`` — and the runtime *answers*: ``None`` when the
running machine keeps the turn, else the machine the strategy picked.
Only then does the handler suspend, yielding that choice through its
``yield from`` chain to the trampoline.  Whatever a scheduling point
raises (a monitor failure, the depth bound, a liveness report,
cancellation) surfaces at the user's call site by ordinary unwinding,
with its ``try``/``finally`` semantics intact; the end-of-execution
cancellation of a suspended handler is thrown in at the ``yield``, the
same place.

Non-switchable methods are untouched and run as plain calls.  Handlers
whose source is unavailable (``exec``-defined code) are conservatively
treated as non-switchable; if such a handler does reach a scheduling
primitive on the inline carrier, the runtime raises a descriptive error
instead of deadlocking.  Constructs that cannot host a ``yield`` —
scheduling calls inside lambdas, comprehensions or nested functions,
handlers that are already generators, ``super()`` dispatch, and starred
primitive arguments — raise :class:`InlineCompileError` at compile time.
"""

from __future__ import annotations

import ast
import copy
import types
import weakref
from typing import Dict, List, Optional, Set, Tuple

from ..errors import PSharpError
from .machine import DISP_ACTION
from .source import function_def

# The scheduling primitives: name -> (parameter names, how many of them
# are required).
_PRIMITIVES = {
    "send": (("target", "event"), 2),
    "create_machine": (("machine_cls", "payload"), 1),
}

# Transformed helper coroutines are published on the class under this
# prefix, so `self._inline__helper(...)` dispatches virtually: a subclass
# that overrides `helper` (and is compiled itself) shadows the base
# class's compiled coroutine the same way the plain call would.
INLINE_PREFIX = "_inline__"

# Methods inherited from the framework base classes never reach a
# scheduling primitive through `self.X(...)` calls (Machine.send goes
# through `self._runtime`), so their sources are not worth analysing.
_FRAMEWORK_MODULES = frozenset(
    {"repro.core.machine", "repro.testing.monitors"}
)


class InlineCompileError(PSharpError):
    """A handler reaches a scheduling primitive in a position that cannot
    be reshaped into a coroutine (see the module docstring)."""


# ---------------------------------------------------------------------------
# Per-function source analysis (cached per function object)
# ---------------------------------------------------------------------------
class _FnInfo:
    __slots__ = (
        "tree",
        "outer_calls",
        "inner_calls",
        "has_yield",
        "filename",
        "firstlineno",
    )

    def __init__(
        self,
        tree: ast.FunctionDef,
        outer_calls: Set[str],
        inner_calls: Set[str],
        has_yield: bool,
        filename: str,
        firstlineno: int,
    ) -> None:
        self.tree = tree
        self.outer_calls = outer_calls
        self.inner_calls = inner_calls
        self.has_yield = has_yield
        self.filename = filename
        self.firstlineno = firstlineno

    @property
    def calls(self) -> Set[str]:
        return self.outer_calls | self.inner_calls


_NESTED_SCOPES = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.Lambda,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


class _CallScanner(ast.NodeVisitor):
    """Collect `self.X(...)` call-site names, split by whether they occur
    in the method's own scope (transformable) or a nested scope (a
    ``yield`` cannot be placed there)."""

    def __init__(self) -> None:
        self.outer_calls: Set[str] = set()
        self.inner_calls: Set[str] = set()
        self.has_yield = False
        self._depth = 0

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            (self.inner_calls if self._depth else self.outer_calls).add(
                func.attr
            )
        self.generic_visit(node)

    def visit_Yield(self, node: ast.Yield) -> None:
        if not self._depth:
            self.has_yield = True
        self.generic_visit(node)

    visit_YieldFrom = visit_Yield  # type: ignore[assignment]

    def generic_visit(self, node: ast.AST) -> None:
        if isinstance(node, _NESTED_SCOPES):
            self._depth += 1
            super().generic_visit(node)
            self._depth -= 1
        else:
            super().generic_visit(node)


# Parsed-source analyses, weak on the function object (see
# _transform_cache).  A None value marks "source unavailable".
_fn_info_cache: "weakref.WeakKeyDictionary[types.FunctionType, Optional[_FnInfo]]" = (
    weakref.WeakKeyDictionary()
)


def _fn_info(fn: types.FunctionType) -> Optional[_FnInfo]:
    """Parse + scan ``fn``; None when its source is unavailable."""
    if fn in _fn_info_cache:
        return _fn_info_cache[fn]
    info: Optional[_FnInfo]
    try:
        func_def, _cut = function_def(fn)
    except (OSError, TypeError, SyntaxError, IndentationError):
        info = None
    else:
        if func_def is None:
            info = None
        else:
            scanner = _CallScanner()
            for stmt in func_def.body:
                scanner.visit(stmt)
            info = _FnInfo(
                func_def,
                scanner.outer_calls,
                scanner.inner_calls,
                scanner.has_yield,
                fn.__code__.co_filename,
                fn.__code__.co_firstlineno,
            )
    _fn_info_cache[fn] = info
    return info


# ---------------------------------------------------------------------------
# The AST rewrite
# ---------------------------------------------------------------------------
def _normalize_args(
    node: ast.Call, names: Tuple[str, ...], owner: str, required: int
) -> List[ast.expr]:
    """Map a primitive call's args/keywords onto positional ``names``;
    missing optional trailing args become ``None`` constants."""
    if any(isinstance(a, ast.Starred) for a in node.args) or any(
        kw.arg is None for kw in node.keywords
    ):
        raise InlineCompileError(
            f"{owner}: cannot reshape a *args/**kwargs call to "
            f"self.{node.func.attr}(...) into a coroutine"  # type: ignore[attr-defined]
        )
    slots: List[Optional[ast.expr]] = list(node.args) + [None] * (
        len(names) - len(node.args)
    )
    if len(node.args) > len(names):
        raise InlineCompileError(
            f"{owner}: too many arguments in scheduling call"
        )
    for kw in node.keywords:
        if kw.arg not in names:
            raise InlineCompileError(
                f"{owner}: unexpected keyword {kw.arg!r} in scheduling call"
            )
        index = names.index(kw.arg)
        if slots[index] is not None:
            raise InlineCompileError(
                f"{owner}: duplicate argument {kw.arg!r} in scheduling call"
            )
        slots[index] = kw.value
    for index in range(required):
        if slots[index] is None:
            raise InlineCompileError(
                f"{owner}: missing argument {names[index]!r} in scheduling call"
            )
    return [
        slot if slot is not None else ast.Constant(value=None)
        for slot in slots
    ]


def _load(name: str) -> ast.expr:
    return ast.Name(id=name, ctx=ast.Load())


def _runtime_call(method: str, args: List[ast.expr]) -> ast.expr:
    """``self._runtime.method(*args)``"""
    runtime = ast.Attribute(value=_load("self"), attr="_runtime", ctx=ast.Load())
    return ast.Call(
        func=ast.Attribute(value=runtime, attr=method, ctx=ast.Load()),
        args=args,
        keywords=[],
    )


def _point(answer: ast.expr, choice: str) -> ast.expr:
    """``(yield c) if (c := answer) is not None else None``: a scheduling
    point as a call the runtime answers with the machine to switch to
    (None: keep running), and a suspension only in the first case."""
    return ast.IfExp(
        test=ast.Compare(
            left=ast.NamedExpr(
                target=ast.Name(id=choice, ctx=ast.Store()), value=answer
            ),
            ops=[ast.IsNot()],
            comparators=[ast.Constant(value=None)],
        ),
        body=ast.Yield(value=_load(choice)),
        orelse=ast.Constant(value=None),
    )


class _InlineTransformer(ast.NodeTransformer):
    """Rewrite scheduling primitives to runtime calls that suspend on a
    switch, and switchable helper calls to ``yield from`` delegations.
    Nested scopes are left alone (verified hazard-free before the
    transform runs)."""

    def __init__(self, switchable: Set[str], owner: str, choice: str) -> None:
        self._switchable = switchable
        self._owner = owner
        self._choice = choice

    # Yields cannot live in nested scopes; their hazard-freedom was
    # checked up front, so skip them entirely.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> ast.AST:
        return node

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]
    visit_Lambda = visit_FunctionDef  # type: ignore[assignment]
    visit_ListComp = visit_FunctionDef  # type: ignore[assignment]
    visit_SetComp = visit_FunctionDef  # type: ignore[assignment]
    visit_DictComp = visit_FunctionDef  # type: ignore[assignment]
    visit_GeneratorExp = visit_FunctionDef  # type: ignore[assignment]

    def visit_Call(self, node: ast.Call) -> ast.AST:
        self.generic_visit(node)
        func = node.func
        if isinstance(func, ast.Name) and func.id == "super":
            raise InlineCompileError(
                f"{self._owner}: super() dispatch inside a scheduling "
                "handler is not supported on the inline backend"
            )
        if not (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            return node
        name = func.attr
        if name in _PRIMITIVES:
            names, required = _PRIMITIVES[name]
            args = _normalize_args(node, names, self._owner, required)
            my_id = ast.Attribute(value=_load("self"), attr="_id", ctx=ast.Load())
            if name == "send":
                send = _runtime_call("_point", [my_id, *args])
                return _point(send, self._choice)
            # (spawn, the scheduling point after it)[0]: the new machine
            # is a branch the decision may choose.
            after = _runtime_call("_point", [my_id])
            return ast.Subscript(
                value=ast.Tuple(
                    elts=[_runtime_call("_spawn", args), _point(after, self._choice)],
                    ctx=ast.Load(),
                ),
                slice=ast.Constant(value=0),
                ctx=ast.Load(),
            )
        if name in self._switchable:
            return ast.YieldFrom(
                value=ast.Call(
                    func=ast.Attribute(
                        value=_load("self"),
                        attr=INLINE_PREFIX + name,
                        ctx=ast.Load(),
                    ),
                    args=node.args,
                    keywords=node.keywords,
                )
            )
        return node


def _fresh_name(code: types.CodeType) -> str:
    """A local name for a scheduling point's choice that no scope of the
    method mentions (a nested function naming a global must not find the
    new local instead)."""
    taken: Set[str] = set()
    scopes = [code]
    while scopes:
        code = scopes.pop()
        taken.update(
            code.co_names, code.co_varnames, code.co_freevars, code.co_cellvars
        )
        scopes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    name = "_choice"
    while name in taken:
        name += "_"
    return name


def _check_transformable(
    name: str, info: _FnInfo, switchable: Set[str], cls_name: str
) -> None:
    owner = f"{cls_name}.{name}"
    if info.has_yield:
        raise InlineCompileError(
            f"{owner}: handlers that are already generators cannot be "
            "reshaped for the inline backend"
        )
    hazards = sorted(
        call
        for call in info.inner_calls
        if call in _PRIMITIVES or call in switchable
    )
    if hazards:
        raise InlineCompileError(
            f"{owner}: scheduling calls {hazards} occur inside a lambda, "
            "comprehension or nested function; a coroutine cannot suspend "
            "there — hoist them into the method body"
        )


# fn -> {relevant-switchable-subset -> compiled coroutine}.  Weak on the
# function object so handlers of dynamically created (e.g. test-local)
# machine classes can be collected with their class.
_transform_cache: "weakref.WeakKeyDictionary[types.FunctionType, Dict[frozenset, types.FunctionType]]" = (
    weakref.WeakKeyDictionary()
)


def _transform(
    fn: types.FunctionType,
    info: _FnInfo,
    switchable: Set[str],
    cls_name: str,
) -> types.FunctionType:
    """Compile the coroutine variant of ``fn``.  Cached on the function
    plus the subset of switchable names it actually calls — the compiled
    code is class-independent (helper delegation is a virtual attribute
    lookup), so base-class methods compile once per distinct resolution."""
    relevant = frozenset(switchable & info.calls)
    cached = _transform_cache.get(fn, {}).get(relevant)
    if cached is not None:
        return cached
    _check_transformable(fn.__name__, info, switchable, cls_name)

    # Transform a deep copy so the cached pristine tree can be reused for
    # other (class, resolution) pairs sharing this function.
    new_def = copy.deepcopy(info.tree)
    new_def.decorator_list = []
    transformer = _InlineTransformer(
        switchable, f"{cls_name}.{fn.__name__}", _fresh_name(fn.__code__)
    )
    new_def.body = [transformer.visit(stmt) for stmt in new_def.body]

    freevars = fn.__code__.co_freevars
    if "__class__" in freevars:
        raise InlineCompileError(
            f"{cls_name}.{fn.__name__}: handlers using zero-argument "
            "super() cannot be reshaped for the inline backend"
        )
    if freevars:
        # The factory re-binds the original closure cells as parameters;
        # parsing a template keeps the AST shape valid across Python
        # versions (3.12 adds required FunctionDef fields).
        module = ast.parse(
            "def __inline_factory__({0}):\n    return None".format(
                ", ".join(freevars)
            )
        )
        factory = module.body[0]
        factory.body = [
            new_def,
            ast.Return(value=ast.Name(id=new_def.name, ctx=ast.Load())),
        ]
    else:
        module = ast.parse("")
        module.body = [new_def]
    ast.fix_missing_locations(module)
    # Line numbers map back to the defining file so tracebacks from
    # transformed coroutines point at the real handler source.
    ast.increment_lineno(module, info.firstlineno - 1)
    code = compile(module, info.filename, "exec")
    namespace: Dict[str, object] = {}
    # Executing with a separate locals dict keeps the definition out of
    # the module's real globals while the new function still *binds* them
    # (event classes, imports) exactly like the original.
    exec(code, fn.__globals__, namespace)
    if freevars:
        cells = [cell.cell_contents for cell in fn.__closure__ or ()]
        new_fn = namespace["__inline_factory__"](*cells)
        if new_fn.__code__.co_freevars == fn.__code__.co_freevars:
            # Share the ORIGINAL closure cells (the compiler sorts
            # freevars deterministically, so a matching tuple means a
            # 1:1 cell correspondence): a free variable rebound by the
            # enclosing scope after compilation is then seen live, just
            # as the threaded backends see it through the plain method.
            new_fn = types.FunctionType(
                new_fn.__code__,
                fn.__globals__,
                new_fn.__name__,
                new_fn.__defaults__,
                fn.__closure__,
            )
            new_fn.__kwdefaults__ = fn.__kwdefaults__
    else:
        new_fn = namespace[new_def.name]
    new_fn.__qualname__ = fn.__qualname__ + "[inline]"
    _transform_cache.setdefault(fn, {})[relevant] = new_fn
    return new_fn


# ---------------------------------------------------------------------------
# Per-class compilation
# ---------------------------------------------------------------------------
def _eligible_methods(cls: type) -> Dict[str, types.FunctionType]:
    """Plain functions reachable on ``cls``, resolved most-derived-wins,
    excluding the framework base classes (they never schedule via self)."""
    methods: Dict[str, types.FunctionType] = {}
    for klass in reversed(cls.__mro__):
        if klass is object or klass.__module__ in _FRAMEWORK_MODULES:
            continue
        for name, attr in vars(klass).items():
            if isinstance(attr, types.FunctionType):
                methods[name] = attr
    return methods


def _switchable_names(
    methods: Dict[str, types.FunctionType],
    infos: Dict[str, Optional[_FnInfo]],
) -> Set[str]:
    """Transitive closure of "calls a scheduling primitive" over the
    class's ``self.X(...)`` call graph."""
    switchable = {
        name
        for name, info in infos.items()
        if info is not None and any(p in info.calls for p in _PRIMITIVES)
    }
    changed = True
    while changed:
        changed = False
        for name, info in infos.items():
            if name in switchable or info is None:
                continue
            if info.calls & switchable:
                switchable.add(name)
                changed = True
    return switchable


def compile_inline_machine(cls: type) -> None:
    """Idempotently fill the coroutine slots of ``cls``'s dispatch table.

    Lazily invoked by the inline backend's ``_spawn``; costs one AST
    round-trip per switchable method per class, amortized over every
    execution of every campaign that touches the class.
    """
    if cls.__dict__.get("_inline_ready"):
        return
    methods = _eligible_methods(cls)
    infos = {name: _fn_info(fn) for name, fn in methods.items()}
    switchable = _switchable_names(methods, infos)

    coroutines: Dict[str, types.FunctionType] = {}
    for name in sorted(switchable):
        info = infos[name]
        assert info is not None  # switchable implies analysable source
        coroutines[name] = _transform(methods[name], info, switchable, cls.__name__)
    for name, gen_fn in coroutines.items():
        setattr(cls, INLINE_PREFIX + name, gen_fn)

    for state in cls._state_infos.values():  # type: ignore[attr-defined]
        dispatch = state.dispatch
        for evt, name in state.actions.items():
            code, plain_fn, _co = dispatch[evt]
            if code == DISP_ACTION and name in coroutines:
                dispatch[evt] = (code, plain_fn, coroutines[name])
        state.entry_co = coroutines.get(state.entry)
        state.exit_co = coroutines.get(state.exit)
    cls._inline_ready = True
