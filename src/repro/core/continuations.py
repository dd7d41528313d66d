"""Compiling machine handlers into resumable generator coroutines.

Primitives are calls; a carrier is the control transfer.  The tester's
one carrier (:mod:`repro.testing.runtime`) runs every machine of a
controlled execution on one thread, so a scheduling decision is a plain
function call instead of an OS thread hand-off.  That requires machine
actions to be *suspendable*: when the strategy picks another machine
mid-action, the current action's frame must pause exactly at the
scheduling point and resume later.  CPython has no stackful coroutines,
but it has generators — and every scheduling point in this programming
model is syntactically visible: it is a call to ``self.send(...)`` or
``self.create_machine(...)`` (``nondet`` consults the strategy but never
transfers control, so it stays a plain call).

This module therefore *reshapes* handler methods into generator
coroutines at class granularity, once, lazily, the first time a machine
class runs:

1. Every plain method reachable from the class's entry/exit/action
   handlers is analysed for scheduling calls; a method is **switchable**
   when it calls a scheduling primitive directly, calls another
   switchable method (the transitive closure over ``self.helper(...)``
   call sites), or calls or binds a *sending lambda* — a lambda that
   reaches one of those, bound to a local name or to ``self.<field>``.
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

   Two shapes that cannot host a ``yield`` where they stand are lowered
   the way CPython itself lowers them after the AST stage, to nested code
   objects — here, nested generators:

   * a list, set or dict comprehension that reaches a scheduling call
     becomes a generator ``def _comp(_it)`` (explicit loops appending to
     an accumulator it returns) placed just before the enclosing
     statement, called where the comprehension stood as
     ``(yield from _comp(<outermost iterable>))`` — the outermost
     iterable evaluated in the enclosing scope, the loop variables kept
     in the comprehension's own, as CPython does;
   * a sending lambda bound to a local becomes a generator lambda (its
     body's primitives rewritten as above), and every call of the local
     ``yield from``.  One bound to ``self.<field>`` stays plain and
     carries a generator twin (attribute ``TWIN``); every ``self.<field>
     (...)`` call in a compiled method becomes ``yield from`` the twin.
     Any other path to the field (``self`` aliased or passed on, a
     method reached through a reference) calls the plain lambda, whose
     primitives reach the runtime and are refused there — a send is
     never dropped.  Such a name or field must only ever be called
     directly: one that escapes (passed on, stored elsewhere, called
     from a nested function) is refused.

   The coroutines are recompiled against the original function's
   globals and closure cells, so event classes, module imports and
   test-local names resolve exactly as they did in the source method.
3. The compiled coroutines are linked into the class's one per-state
   dispatch table, in place: the coroutine slot of an action's
   ``StateInfo.dispatch`` entry, and ``StateInfo.entry_co`` /
   ``exit_co`` next to ``entry_fn`` / ``exit_fn``.  ``Machine._start`` /
   ``_step`` read those slots only on a machine the carrier marked
   suspendable, so :class:`~repro.testing.threads.ThreadedRuntime`,
   CHESS, the production runtime and monitors keep calling the plain
   handlers of a compiled class.

A compiled handler *calls* the runtime at its scheduling primitives and
the runtime *answers*: ``None`` when the running machine keeps the turn,
else the machine the strategy picked.  Only then does the handler
suspend, yielding that choice through its ``yield from`` chain to the
trampoline.  Whatever a scheduling point raises (a monitor failure, the
depth bound, a liveness report, cancellation) surfaces at the user's
call site by ordinary unwinding, with its ``try``/``finally`` semantics
intact; the end-of-execution cancellation of a suspended handler is
thrown in at the ``yield``, the same place.

Non-switchable methods are untouched and run as plain calls.  What stays
refused, each with one :class:`InlineCompileError` line naming
``Class.method:line`` and the fallback, ``runtime_factory=
ThreadedRuntime`` (one OS thread per machine, which runs any handler; a
Python API choice — no CLI flag or campaign-file field names it):

* handlers that are already generators (their own ``yield`` would be
  taken for a scheduling decision);
* ``super()`` inside a switchable method (the compiled coroutine is a
  new function with no ``__class__`` cell);
* starred or ``**`` arguments to a primitive (its arguments are mapped
  onto the runtime call's positions at compile time);
* scheduling calls inside a generator expression (lazy, and consumed
  inside C calls a coroutine cannot suspend through), a nested function,
  a lambda no assignment binds, or a comprehension inside a sending
  lambda, and sending lambdas that escape;
* handlers with no source (``exec``-defined code), and methods or field
  lambdas reached other than by a direct ``self.<name>(...)`` call, that
  reach a primitive: they run plain, so the runtime refuses the
  primitive when it is called (and a compiled call of a field some plain
  code bound, which has no twin, likewise).
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

# A sending lambda bound to a field stays plain; its generator twin rides
# on it under this function attribute (see _InlineTransformer._bind_field).
TWIN = INLINE_PREFIX + "twin"

# Methods inherited from the framework base classes never reach a
# scheduling primitive through `self.X(...)` calls (Machine.send goes
# through `self._runtime`), so their sources are not worth analysing.
_FRAMEWORK_MODULES = frozenset(
    {"repro.core.machine", "repro.testing.monitors"}
)

class InlineCompileError(PSharpError):
    """A handler reaches a scheduling primitive in a position that cannot
    be reshaped into a coroutine (see the module docstring)."""


def refusal(where: str, what: str) -> InlineCompileError:
    """The one-line refusal, naming the carrier that runs what this
    compiler refuses: ``where`` is ``Class.method:line``.  No flag or
    campaign-file field names that carrier: it is a Python API choice."""
    return InlineCompileError(
        f"{where}: {what}; run it with runtime_factory=ThreadedRuntime (Python API only)"
    )


def _is_self_attr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


# ---------------------------------------------------------------------------
# Per-function source analysis (cached per function object)
# ---------------------------------------------------------------------------
class _FnInfo(ast.NodeVisitor):
    """What compiling one method needs to know about its source, from one
    walk over it.  Lines are absolute (the defining file's)."""

    def __init__(self, fn: types.FunctionType, tree: ast.FunctionDef) -> None:
        self.tree = tree
        self.filename = fn.__code__.co_filename
        self.firstlineno = fn.__code__.co_firstlineno
        # `self.X(...)` names called where a yield can go (the method's own
        # scope and its comprehensions) ...
        self.calls: Set[str] = set()
        # ... and where none can (nested functions, generator expressions,
        # unbound lambdas, comprehensions in lambdas): name -> first line.
        self.hidden: Dict[str, int] = {}
        # Lambdas an assignment binds: (local name or "self.field", the
        # `self.X(...)` names their body calls, line).
        self.lambdas: List[Tuple[str, Set[str], int]] = []
        # Names and "self.field"s used other than by a direct call (loads,
        # non-lambda stores, parameters): name -> first line.
        self.escapes: Dict[str, int] = {
            arg.arg: self.firstlineno for arg in ast.walk(tree.args) if isinstance(arg, ast.arg)
        }
        self.has_yield = False
        # Where a call found now goes: self.calls, a bound lambda's set, or
        # None for nowhere a yield can go.
        self._sink: Optional[Set[str]] = self.calls
        self._visit_in(self.calls, tree.body)
        # Every `self.X` this method calls or binds a lambda to.
        self.names = self.calls | set(self.hidden)
        for key, calls, _line in self.lambdas:
            self.names |= calls | ({key[5:]} if key.startswith("self.") else set())

    def _line(self, node: ast.AST) -> int:
        return self.firstlineno - 1 + node.lineno

    def _visit_in(self, sink: Optional[Set[str]], nodes) -> None:
        saved, self._sink = self._sink, sink
        for node in nodes:
            self.visit(node)
        self._sink = saved

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if _is_self_attr(func):
            if self._sink is None:
                self.hidden.setdefault(func.attr, self._line(node))
            else:
                self._sink.add(func.attr)
        elif isinstance(func, ast.Name):
            if self._sink is not self.calls:  # a local called where no yield can go
                self.escapes.setdefault(func.id, self._line(node))
        else:
            self.visit(func)
        self._visit_in(self._sink, node.args + [kw.value for kw in node.keywords])

    def visit_Name(self, node: ast.Name) -> None:
        self.escapes.setdefault(node.id, self._line(node))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            self.escapes.setdefault("self." + node.attr, self._line(node))
        else:
            self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        target, lam = node.targets[0], node.value
        if isinstance(lam, ast.Lambda) and len(node.targets) == 1 and self._sink is self.calls:
            key = target.id if isinstance(target, ast.Name) else (
                "self." + target.attr if _is_self_attr(target) else None  # type: ignore[attr-defined]
            )
            if key is not None:
                self._visit_in(None, lam.args.defaults + [d for d in lam.args.kw_defaults if d])
                body: Set[str] = set()
                self._visit_in(body, [lam.body])
                self.lambdas.append((key, body, self._line(node)))
                return
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.AST) -> None:
        # Lowered in place in the method's scope; inside a lambda there is
        # no statement to lower it before.
        self._visit_in(self._sink if self._sink is self.calls else None, ast.iter_child_nodes(node))

    visit_SetComp = visit_DictComp = visit_ListComp

    def visit_Lambda(self, node: ast.AST) -> None:
        self._visit_in(None, ast.iter_child_nodes(node))

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = visit_GeneratorExp = visit_Lambda

    def visit_Yield(self, node: ast.Yield) -> None:
        self.has_yield = self.has_yield or self._sink is self.calls
        self.generic_visit(node)

    visit_YieldFrom = visit_Yield


# Parsed-source analyses, weak on the function object (see
# _transform_cache).  A None value marks "source unavailable".
_fn_info_cache: "weakref.WeakKeyDictionary[types.FunctionType, Optional[_FnInfo]]" = (
    weakref.WeakKeyDictionary()
)


def _fn_info(fn: types.FunctionType) -> Optional[_FnInfo]:
    """Parse + scan ``fn``; None when its source is unavailable."""
    if fn in _fn_info_cache:
        return _fn_info_cache[fn]
    try:
        func_def, _cut = function_def(fn)
    except (OSError, TypeError, SyntaxError, IndentationError):
        func_def = None
    info = _fn_info_cache[fn] = None if func_def is None else _FnInfo(fn, func_def)
    return info


# ---------------------------------------------------------------------------
# The AST rewrite
# ---------------------------------------------------------------------------
def _normalize_args(
    node: ast.Call, names: Tuple[str, ...], where: str, required: int
) -> List[ast.expr]:
    """Map a primitive call's args/keywords onto positional ``names``;
    missing optional trailing args become ``None`` constants."""
    primitive = f"self.{node.func.attr}(...)"  # type: ignore[attr-defined]
    if any(isinstance(a, ast.Starred) for a in node.args) or any(
        kw.arg is None for kw in node.keywords
    ):
        raise refusal(where, f"*args / **kwargs in a call to {primitive}")
    slots: List[Optional[ast.expr]] = list(node.args) + [None] * (
        len(names) - len(node.args)
    )
    if len(node.args) > len(names):
        raise refusal(where, f"too many arguments to {primitive}")
    for kw in node.keywords:
        if kw.arg not in names:
            raise refusal(where, f"unexpected keyword {kw.arg!r} to {primitive}")
        index = names.index(kw.arg)
        if slots[index] is not None:
            raise refusal(where, f"duplicate argument {kw.arg!r} to {primitive}")
        slots[index] = kw.value
    for index in range(required):
        if slots[index] is None:
            raise refusal(where, f"missing argument {names[index]!r} to {primitive}")
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


class _Names:
    """Fresh local names: none that any scope of the method mentions (a
    nested function naming a global must not find a new local instead)."""

    def __init__(self, code: types.CodeType) -> None:
        self._taken: Set[str] = set()
        scopes = [code]
        while scopes:
            code = scopes.pop()
            self._taken.update(
                code.co_names, code.co_varnames, code.co_freevars, code.co_cellvars
            )
            scopes += [c for c in code.co_consts if isinstance(c, types.CodeType)]

    def __call__(self, base: str) -> str:
        name, index = base, 0
        while name in self._taken:
            index += 1
            name = f"{base}{index}"
        self._taken.add(name)
        return name


class _InlineTransformer(ast.NodeTransformer):
    """Rewrite scheduling primitives to runtime calls that suspend on a
    switch, switchable calls to ``yield from`` delegations, and the
    comprehensions and bound lambdas that hold them to nested
    generators.  Other nested scopes are left alone (verified
    hazard-free before the transform runs)."""

    def __init__(
        self,
        switchable: Set[str],
        fields: Set[str],
        local_lambdas: Set[str],
        owner: str,
        offset: int,
        names: _Names,
    ) -> None:
        self._switchable = switchable
        self._fields = fields
        self._locals = local_lambdas
        self._callees = {*_PRIMITIVES, *switchable, *fields}  # `self.X` calls that suspend
        self._owner = owner
        self._offset = offset
        self._names = names
        self._choice = names("_choice")
        self._it = names("_it")
        self._acc = names("_acc")
        # Generated defs waiting to be placed before the statement being
        # visited; None inside a lambda body (no statement to go before).
        self._pending: Optional[List[ast.stmt]] = []

    def _where(self, node: ast.AST) -> str:
        return f"{self._owner}:{self._offset + node.lineno}"

    def visit(self, node: ast.AST):
        if not isinstance(node, ast.stmt):
            return super().visit(node)
        outer, self._pending = self._pending, []
        new = super().visit(node)
        pending, self._pending = self._pending, outer
        if not pending:
            return new
        return pending + (new if isinstance(new, list) else [new])

    # Yields cannot live in these nested scopes; their hazard-freedom was
    # checked up front, so skip them entirely.
    def visit_FunctionDef(self, node: ast.FunctionDef) -> ast.AST:
        return node

    visit_AsyncFunctionDef = visit_ClassDef = visit_FunctionDef  # type: ignore[assignment]
    visit_Lambda = visit_GeneratorExp = visit_FunctionDef  # type: ignore[assignment]

    def _generator_lambda(self, lam: ast.Lambda) -> ast.Lambda:
        outer, self._pending = self._pending, None
        lam.body = self.visit(lam.body)
        self._pending = outer
        return lam

    def visit_Assign(self, node: ast.Assign) -> ast.AST:
        value = node.value
        if isinstance(value, ast.Lambda) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in self._locals:
                # A sending local (only ever called here): its body
                # becomes a generator's.
                self._generator_lambda(value)
                return node
            if _is_self_attr(target) and target.attr in self._fields:  # type: ignore[attr-defined]
                return self._bind_field(node)
        return self.generic_visit(node)

    def _bind_field(self, node: ast.Assign) -> List[ast.stmt]:
        """``self.f = lambda ...: body`` binds the plain lambda, carrying
        its generator twin under ``TWIN`` for the compiled calls of
        ``self.f``.  Code that reaches the field another way (``m = self;
        m.f()``, a helper given ``self``) calls the plain lambda, whose
        primitives reach the runtime and are refused there.  The twin
        shares the plain lambda's defaults, evaluated once."""
        lam = self._names("_lam")
        twin = self._generator_lambda(copy.deepcopy(node.value))  # type: ignore[arg-type]
        twin.args.defaults = []
        twin.args.kw_defaults = [None] * len(twin.args.kw_defaults)
        stmts = []
        for line in (
            f"{lam} = None",
            f"{lam}.{TWIN} = None",
            f"{lam}.{TWIN}.__defaults__ = {lam}.__defaults__",
            f"{lam}.{TWIN}.__kwdefaults__ = {lam}.__kwdefaults__",
        ):
            stmt = ast.parse(line).body[0]
            ast.increment_lineno(stmt, node.lineno - 1)
            stmts.append(stmt)
        stmts[0].value, stmts[1].value = node.value, twin  # type: ignore[attr-defined]
        node.value = _load(lam)
        return stmts + [node]

    def _suspends(self, node: ast.AST) -> bool:
        return any(
            isinstance(sub, ast.Call) and (
                (_is_self_attr(sub.func) and sub.func.attr in self._callees)  # type: ignore[attr-defined]
                or (isinstance(sub.func, ast.Name) and sub.func.id in self._locals)
            )
            for sub in ast.walk(node)
        )

    def _comprehension(self, node: ast.expr) -> ast.AST:
        if not self._suspends(node):
            return node
        where = self._where(node)
        if self._pending is None:
            raise refusal(where, "a scheduling call in a comprehension inside a lambda")
        if any(isinstance(sub, ast.NamedExpr) for sub in ast.walk(node)):
            raise refusal(where, "an assignment expression in a comprehension that schedules")
        generators = node.generators  # type: ignore[attr-defined]
        if any(g.is_async for g in generators):
            raise refusal(where, "an async comprehension that schedules")
        if isinstance(node, ast.DictComp):  # the key is evaluated first
            init, method, args = "{}", "__setitem__", [node.key, node.value]
        else:  # {*()}: an empty set no rebinding of `set` can change
            init = "[]" if isinstance(node, ast.ListComp) else "{*()}"
            method = "append" if isinstance(node, ast.ListComp) else "add"
            args = [node.elt]  # type: ignore[attr-defined]
        body: List[ast.stmt] = [ast.Expr(value=ast.Call(
            func=ast.Attribute(value=_load(self._acc), attr=method, ctx=ast.Load()),
            args=args, keywords=[],
        ))]
        for index in reversed(range(len(generators))):
            generator = generators[index]
            for test in reversed(generator.ifs):
                body = [ast.If(test=test, body=body, orelse=[])]
            source = _load(self._it) if index == 0 else generator.iter
            body = [ast.For(target=generator.target, iter=source, body=body, orelse=[])]
        name = self._names("_comp")
        # A parsed template keeps the def's shape valid across Python
        # versions (3.12 adds required FunctionDef fields).
        gen_def = ast.parse(
            f"def {name}({self._it}):\n    {self._acc} = {init}\n    return {self._acc}"
        ).body[0]
        ast.increment_lineno(gen_def, node.lineno - 1)
        gen_def.body[1:1] = body
        self.generic_visit(gen_def)
        # The outermost iterable is evaluated here, in the enclosing scope;
        # the first loop of _comp takes its iterator before anything else.
        outermost = self.visit(generators[0].iter)
        self._pending.append(gen_def)
        return ast.YieldFrom(value=ast.Call(func=_load(name), args=[outermost], keywords=[]))

    visit_ListComp = visit_SetComp = visit_DictComp = _comprehension

    def visit_Call(self, node: ast.Call) -> ast.AST:
        self.generic_visit(node)
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "super":
                raise refusal(self._where(node), "super() in a handler that schedules")
            if func.id in self._locals:
                return ast.YieldFrom(value=node)
            return node
        if not _is_self_attr(func):
            return node
        name = func.attr  # type: ignore[attr-defined]
        if name in _PRIMITIVES:
            names, required = _PRIMITIVES[name]
            args = _normalize_args(node, names, self._where(node), required)
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
        if name in self._fields:
            # The twin the compiled binding attached, or — for a field
            # bound by code the compiler did not reshape — the refusal.
            node.func = ast.parse(
                f"self.{name}.__dict__.get({TWIN!r}) or self._runtime._unreshaped_lambda",
                mode="eval",
            ).body
            for sub in ast.walk(node.func):
                ast.copy_location(sub, func)
            return ast.YieldFrom(value=node)
        return node


def _check_lambdas(owner: str, info: _FnInfo, suspends: Set[str], sending: Set[str]) -> None:
    """Refuse a name in ``sending`` (a local or ``self.field`` a lambda
    that schedules is bound to) that is also bound to a lambda that does
    not, or that is used other than by a direct call."""
    for key, calls, line in info.lambdas:
        if key in sending and not calls & suspends:
            raise refusal(f"{owner}:{line}", f"{key} is bound both to a lambda that schedules and to one that does not")
    for key in sorted(sending & info.escapes.keys()):
        raise refusal(
            f"{owner}:{info.escapes[key]}",
            f"the lambda bound to {key} schedules and escapes (it is used other than by a direct call)",
        )


def _check_transformable(owner: str, info: _FnInfo, suspends: Set[str]) -> Set[str]:
    """Refuse what cannot be reshaped; the method's sending locals."""
    if info.has_yield:
        raise refusal(f"{owner}:{info.firstlineno}", "a handler that is already a generator")
    hazards = sorted((line, call) for call, line in info.hidden.items() if call in suspends)
    if hazards:
        line, call = hazards[0]
        raise refusal(
            f"{owner}:{line}",
            f"self.{call}(...) where a coroutine cannot suspend (a generator expression, "
            "a nested function, an unbound lambda, or a comprehension inside a lambda)",
        )
    local_lambdas = {key for key, calls, _ in info.lambdas if "." not in key and calls & suspends}
    _check_lambdas(owner, info, suspends, local_lambdas)
    return local_lambdas


# fn -> {what it calls that suspends -> compiled coroutine}.  Weak on the
# function object so handlers of dynamically created (e.g. test-local)
# machine classes can be collected with their class.
_transform_cache: "weakref.WeakKeyDictionary[types.FunctionType, Dict[tuple, types.FunctionType]]" = (
    weakref.WeakKeyDictionary()
)


def _transform(
    fn: types.FunctionType,
    info: _FnInfo,
    switchable: Set[str],
    fields: Set[str],
    cls_name: str,
) -> types.FunctionType:
    """Compile the coroutine variant of ``fn``.  Cached on the function
    plus the switchable methods and sending fields it actually calls or
    binds — the compiled code is class-independent (helper delegation is
    a virtual attribute lookup), so base-class methods compile once per
    distinct resolution."""
    relevant = (frozenset(switchable & info.names), frozenset(fields & info.names))
    cached = _transform_cache.get(fn, {}).get(relevant)
    if cached is not None:
        return cached
    owner = f"{cls_name}.{fn.__name__}"
    local_lambdas = _check_transformable(owner, info, {*_PRIMITIVES, *switchable, *fields})

    # Transform a deep copy so the cached pristine tree can be reused for
    # other (class, resolution) pairs sharing this function.
    new_def = copy.deepcopy(info.tree)
    new_def.decorator_list = []
    transformer = _InlineTransformer(
        switchable, fields, local_lambdas, owner, info.firstlineno - 1,
        _Names(fn.__code__),
    )
    transformer.generic_visit(new_def)
    # Dead code that keeps it a generator when it only binds a lambda.
    new_def.body += ast.parse("if False:\n    yield").body
    freevars = fn.__code__.co_freevars
    if "__class__" in freevars:  # the coroutine is a new function: no cell
        raise refusal(f"{owner}:{info.firstlineno}", "__class__ in a handler that schedules")

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
            # as the plain method sees it.
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


def _switchable_names(infos: Dict[str, Optional[_FnInfo]]) -> Tuple[Set[str], Set[str]]:
    """``(switchable methods, sending fields)``: the least fixed point of
    "calls a scheduling primitive, a switchable method or a sending
    field, or binds a lambda that does" over the class's ``self.X(...)``
    call graph."""
    switchable: Set[str] = set()
    fields: Set[str] = set()
    suspends = set(_PRIMITIVES)
    changed = True
    while changed:
        changed = False
        for name, info in infos.items():
            if info is None:
                continue
            sending = {key for key, calls, _ in info.lambdas if calls & suspends}
            new_fields = {key[5:] for key in sending if key.startswith("self.")} - fields
            if new_fields or (name not in switchable and (
                sending or (info.calls | info.hidden.keys()) & suspends
            )):
                fields |= new_fields
                switchable.add(name)
                suspends |= new_fields | {name}
                changed = True
    return switchable, fields


def compile_inline_machine(cls: type) -> None:
    """Idempotently fill the coroutine slots of ``cls``'s dispatch table.

    Lazily invoked when a machine of the class is first seated (and for
    a campaign's main class before its first execution); costs one AST
    round-trip per switchable method per class, amortized over every
    execution of every campaign that touches the class.
    """
    if cls.__dict__.get("_inline_ready"):
        return
    methods = _eligible_methods(cls)
    infos = {name: _fn_info(fn) for name, fn in methods.items()}
    switchable, fields = _switchable_names(infos)
    # A sending field: held by lambdas that schedule, only ever called.
    for name, info in sorted(infos.items()):
        if info is not None:
            _check_lambdas(
                f"{cls.__name__}.{name}", info, {*_PRIMITIVES, *switchable, *fields},
                {"self." + field for field in fields},
            )

    coroutines: Dict[str, types.FunctionType] = {}
    for name in sorted(switchable):
        info = infos[name]
        assert info is not None  # switchable implies analysable source
        coroutines[name] = _transform(methods[name], info, switchable, fields, cls.__name__)
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
