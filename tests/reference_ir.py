"""Test-only oracle: which variables a statement names, and xSA's renaming
clone, written out per statement kind.

``vars_used`` / ``vars_occurring`` are the per-class methods each IR
statement had before ``Stmt`` read them off its ``DEFS`` / ``USES``
declarations (``self`` became ``stmt``), less the frontend's literal
operands (``LITERALS``: ``"0"``, ``"true"``, ``"false"``, ``"null"``),
which they used to report as variables; ``clone_stmts`` is the
``_clone_stmts`` xSA had before it renamed through those declarations,
one constructor call per statement kind.  ``tests/test_ir_vars.py``
checks the declared readers against these on the lowered Table 1
programs, their xSA drivers and generated programs.
"""

from typing import Dict, List, Optional

from repro.lang.ir import (
    LITERALS,
    Assert,
    Assign,
    Call,
    Const,
    CreateMachine,
    External,
    If,
    LoadField,
    New,
    Nondet,
    Op,
    Return,
    Send,
    Stmt,
    StoreField,
    While,
)


def vars_used(stmt: Stmt) -> List[str]:
    """Variables whose *values* ``stmt`` reads."""
    return [v for v in _operands_used(stmt) if v not in LITERALS]


def _operands_used(stmt: Stmt) -> List[str]:
    if isinstance(stmt, Assign):
        return [stmt.src]
    if isinstance(stmt, Op):
        return [stmt.left, stmt.right]
    if isinstance(stmt, StoreField):
        return [stmt.src]
    if isinstance(stmt, LoadField):
        return ["this"]
    if isinstance(stmt, Call):
        return [stmt.recv, *stmt.args]
    if isinstance(stmt, Send):
        return [stmt.dst] + ([stmt.arg] if stmt.arg is not None else [])
    if isinstance(stmt, Return):
        return [stmt.var] if stmt.var is not None else []
    if isinstance(stmt, (If, While)):
        return [stmt.cond]
    if isinstance(stmt, Assert):
        return [stmt.var]
    if isinstance(stmt, CreateMachine):
        return [stmt.arg] if stmt.arg is not None else []
    assert isinstance(stmt, (Const, New, Nondet, External)), stmt
    return []


def vars_occurring(stmt: Stmt) -> List[str]:
    """All variables syntactically occurring in ``stmt``."""
    return [v for v in _operands_occurring(stmt) if v not in LITERALS]


def _operands_occurring(stmt: Stmt) -> List[str]:
    if isinstance(stmt, Assign):
        return [stmt.dst, stmt.src]
    if isinstance(stmt, (Const, New, Nondet, External)):
        return [stmt.dst]
    if isinstance(stmt, Op):
        return [stmt.dst, stmt.left, stmt.right]
    if isinstance(stmt, StoreField):
        return ["this", stmt.src]
    if isinstance(stmt, LoadField):
        return [stmt.dst, "this"]
    if isinstance(stmt, Call):
        occurring = [stmt.recv, *stmt.args]
        if stmt.dst is not None:
            occurring.append(stmt.dst)
        return occurring
    if isinstance(stmt, CreateMachine):
        return [stmt.dst, *vars_used(stmt)]
    return vars_used(stmt)


def _rename(rename: Dict[str, str], var: Optional[str]) -> Optional[str]:
    if var is None:
        return None
    return rename.get(var, var)


def clone_stmts(
    body: List[Stmt],
    rename: Dict[str, str],
    origin: str,
    inliner=None,
    ret_var: Optional[str] = None,
) -> List[Stmt]:
    """xSA's handler-body clone, one branch per statement kind."""
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
            if ret_var is not None and stmt.var is not None:
                out.append(Assign(ret_var, _rename(rename, stmt.var), loc=loc))
            continue
        elif isinstance(stmt, If):
            out.append(
                If(
                    _rename(rename, stmt.cond),
                    clone_stmts(stmt.then_body, rename, origin, inliner, ret_var),
                    clone_stmts(stmt.else_body, rename, origin, inliner, ret_var),
                    loc=loc,
                )
            )
        elif isinstance(stmt, While):
            out.append(
                While(
                    _rename(rename, stmt.cond),
                    clone_stmts(stmt.body, rename, origin, inliner, ret_var),
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
        else:
            raise TypeError(f"cannot clone {stmt!r}")
    return out
