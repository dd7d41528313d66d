"""Cross-state analysis (xSA, Section 5.4).

"Most false-positives in our experiments originate from the payload of an
event being constructed in one machine state and only being sent from a
later state. ... each machine can be seen as a CFG, where at the end of
each method representing a state we non-deterministically call one of the
methods representing an immediate successor state.  Our analysis can now
be performed on this overarching CFG once we lift all machine fields to
be parameters of the methods.  As payloads are now passed as parameters,
the false-positives no longer occur."

Implementation: for each machine we build a single synthetic *driver*
method whose CFG is the overarching state graph —

* a ``dispatch_q`` join node per state ``q``;
* the inlined, variable-renamed body of each handler between
  ``dispatch_q`` and ``dispatch_q'`` for every transition ``(q, e) -> q'``;
* every field ``f`` lifted to a driver-local ``$fld_f`` (loads and stores
  become plain assignments, so the flow-sensitive taint engine can apply
  *strong updates* — which is exactly what verifies the Example 5.5
  repair ``this.list := null``);
* each handler invocation starts by assigning its payload parameter an
  opaque ``External`` value: a fresh payload per received event.

Lifting is only sound when handler code reaches machine fields *directly*
(not through ``this``-calls into methods that themselves touch fields);
when that precondition fails we keep the original verdict rather than
suppressing anything, preserving soundness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from ..lang.cfg import Cfg, Node
from ..lang.ir import (
    Assert,
    Assign,
    Call,
    Const,
    CreateMachine,
    External,
    If,
    LoadField,
    MethodDecl,
    New,
    Nondet,
    Op,
    Program,
    Return,
    Send,
    Stmt,
    StoreField,
    VarDecl,
    While,
    flatten,
)
from .taint import MethodInfo


@dataclass
class Driver:
    """The synthetic overarching method of one machine."""

    machine: str
    info: MethodInfo


def _rename(rename: Dict[str, str], var: Optional[str]) -> Optional[str]:
    if var is None:
        return None
    return rename.get(var, var)


def _clone_stmts(
    body: List[Stmt],
    rename: Dict[str, str],
    origin: str,
    inliner=None,
    ret_var: Optional[str] = None,
) -> List[Stmt]:
    """Deep-copy a handler body with variables renamed, field accesses
    lowered to ``$fld_*`` locals, and locations tagged with their origin
    method so xSA verdicts can be matched back to base-analysis sites.

    ``inliner(call, rename, loc)`` — when set, gives the driver builder a
    chance to splice in the body of a ``this.method(...)`` call (machine
    methods may touch fields, which lifting must see).  ``ret_var`` turns
    ``return v`` into an assignment (used for inlined callees).
    """
    out: List[Stmt] = []
    for stmt in body:
        loc = f"{origin}@{stmt.loc}" if "@" not in stmt.loc else stmt.loc
        if isinstance(stmt, Call) and inliner is not None and stmt.recv == "this":
            spliced = inliner(stmt, rename, loc)
            if spliced is not None:
                out.extend(spliced)
                continue
        if isinstance(stmt, Assign):
            out.append(Assign(_rename(rename, stmt.dst), _rename(rename, stmt.src), loc=loc))
        elif isinstance(stmt, Const):
            out.append(Const(_rename(rename, stmt.dst), stmt.value, loc=loc))
        elif isinstance(stmt, Op):
            out.append(
                Op(
                    _rename(rename, stmt.dst),
                    _rename(rename, stmt.left),
                    stmt.op,
                    _rename(rename, stmt.right),
                    loc=loc,
                )
            )
        elif isinstance(stmt, StoreField):
            out.append(Assign(f"$fld_{stmt.field}", _rename(rename, stmt.src), loc=loc))
        elif isinstance(stmt, LoadField):
            out.append(Assign(_rename(rename, stmt.dst), f"$fld_{stmt.field}", loc=loc))
        elif isinstance(stmt, New):
            out.append(New(_rename(rename, stmt.dst), stmt.cls, loc=loc))
        elif isinstance(stmt, Call):
            out.append(
                Call(
                    _rename(rename, stmt.dst),
                    _rename(rename, stmt.recv),
                    stmt.method,
                    [_rename(rename, a) for a in stmt.args],
                    loc=loc,
                )
            )
        elif isinstance(stmt, Send):
            out.append(
                Send(_rename(rename, stmt.dst), stmt.event, _rename(rename, stmt.arg), loc=loc)
            )
        elif isinstance(stmt, Return):
            # Handlers are void and inlined callees assign their returned
            # value; in both cases the *jump* is modelled by dropping the
            # statement, i.e. pretending the remainder may still execute.
            # This over-approximates the path set (sound for a
            # may-analysis); routing the return to the driver's Exit would
            # instead lose the paths into later states — unsound.
            if ret_var is not None and stmt.var is not None:
                out.append(Assign(ret_var, _rename(rename, stmt.var), loc=loc))
            continue
        elif isinstance(stmt, If):
            out.append(
                If(
                    _rename(rename, stmt.cond),
                    _clone_stmts(stmt.then_body, rename, origin, inliner, ret_var),
                    _clone_stmts(stmt.else_body, rename, origin, inliner, ret_var),
                    loc=loc,
                )
            )
        elif isinstance(stmt, While):
            out.append(
                While(
                    _rename(rename, stmt.cond),
                    _clone_stmts(stmt.body, rename, origin, inliner, ret_var),
                    loc=loc,
                )
            )
        elif isinstance(stmt, Assert):
            out.append(Assert(_rename(rename, stmt.var), stmt.message, loc=loc))
        elif isinstance(stmt, Nondet):
            out.append(Nondet(_rename(rename, stmt.dst), loc=loc))
        elif isinstance(stmt, CreateMachine):
            out.append(
                CreateMachine(
                    _rename(rename, stmt.dst), stmt.machine, _rename(rename, stmt.arg), loc=loc
                )
            )
        elif isinstance(stmt, External):
            out.append(External(_rename(rename, stmt.dst), loc=loc))
        else:  # pragma: no cover
            raise TypeError(f"cannot clone {stmt!r}")
    return out


def _method_touches_fields(method: MethodDecl) -> bool:
    return any(
        isinstance(s, (LoadField, StoreField)) for s in flatten(method.body)
    )


def build_driver(program: Program, machine_name: str) -> Optional[Driver]:
    """Construct the overarching driver method, or None when the machine
    is outside the liftable fragment.

    The driver is not added to the engine's methods: nothing calls it, so
    it needs no summary, and queries take its ``MethodInfo`` directly (the
    engine keys compiled flows by that object)."""
    machine = program.machines[machine_name]
    cls = program.classes[machine.class_name]
    init = cls.methods.get(machine.initial)
    if init is None:
        return None
    bail = {"flag": False}
    inline_counter = {"n": 0}

    locals_: List[VarDecl] = [
        VarDecl(f"$fld_{f.name}", f.type) for f in cls.fields
    ]
    method = MethodDecl(name=f"$xsa_{machine_name}", params=[], locals=locals_)

    cfg = object.__new__(Cfg)
    cfg.method = method
    cfg.nodes = []
    cfg.entry = cfg._node(label="Entry")
    cfg.exit = cfg._node(label="Exit")

    def instantiate(handler_method: MethodDecl, prefix: str) -> tuple:
        """Rename map + payload assignment for one inlined handler copy."""
        rename: Dict[str, str] = {}
        for var in list(handler_method.params) + list(handler_method.locals):
            fresh = f"{prefix}{var.name}"
            rename[var.name] = fresh
            locals_.append(VarDecl(fresh, var.type))
        prologue: List[Stmt] = [
            External(rename[p.name], loc=f"{handler_method.name}@payload")
            for p in handler_method.params
        ]
        return rename, prologue

    inline_stack: List[str] = []

    def inline_call(call: Call, caller_rename: Dict[str, str], loc: str):
        """Splice the body of a machine self-call into the driver so its
        field accesses are lifted too.  Returns None to keep the call as
        an opaque node (only safe when the callee is field-free)."""
        callee = cls.methods.get(call.method)
        if callee is None:
            return None
        if not _method_touches_fields(callee) and call.method not in inline_stack:
            return None  # summaries handle field-free methods precisely
        if call.method in inline_stack or len(inline_stack) >= 4:
            bail["flag"] = True  # recursion through fields: give up lifting
            return []
        inline_counter["n"] += 1
        prefix = f"inl{inline_counter['n']}_"
        rename: Dict[str, str] = {}
        for var in list(callee.params) + list(callee.locals):
            fresh = f"{prefix}{var.name}"
            rename[var.name] = fresh
            locals_.append(VarDecl(fresh, var.type))
        spliced: List[Stmt] = []
        for index, param in enumerate(callee.params):
            if index < len(call.args):
                actual = caller_rename.get(call.args[index], call.args[index])
                spliced.append(Assign(rename[param.name], actual, loc=loc))
        ret_var = None
        if call.dst is not None:
            ret_var = caller_rename.get(call.dst, call.dst)
        inline_stack.append(call.method)
        spliced.extend(
            _clone_stmts(callee.body, rename, callee.name, inline_call, ret_var)
        )
        inline_stack.pop()
        return spliced

    # Initial state body.
    rename, prologue = instantiate(init, "i0_")
    init_body = prologue + _clone_stmts(init.body, rename, init.name, inline_call)
    tails = cfg._build(init_body, [cfg.entry])

    dispatch: Dict[str, Node] = {}
    for state in machine.states():
        dispatch[state] = cfg._node(label=f"dispatch_{state}")
        cfg._edge(dispatch[state], cfg.exit)  # the machine may go idle

    for tail in tails:
        cfg._edge(tail, dispatch[machine.initial_state])

    seen: Set[tuple] = set()
    for handler in machine.handlers:
        key = (handler.state, handler.event)
        if key in seen:
            continue
        seen.add(key)
        handler_method = cls.methods.get(handler.method)
        if handler_method is None:
            continue
        prefix = f"{handler.state}_{handler.event}_"
        rename, prologue = instantiate(handler_method, prefix)
        body = prologue + _clone_stmts(
            handler_method.body, rename, handler_method.name, inline_call
        )
        handler_tails = cfg._build(body, [dispatch[handler.state]])
        target = dispatch.get(handler.next_state)
        if target is None:  # pragma: no cover - states() covers all targets
            target = cfg.exit
        for tail in handler_tails:
            cfg._edge(tail, target)

    if bail["flag"]:
        return None  # outside the liftable fragment: keep base verdicts
    return Driver(machine_name, MethodInfo(machine.class_name, method, cfg=cfg))
