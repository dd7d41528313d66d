"""Test-only oracle: set-level transfer functions and the naive fixpoint
drivers the sparse solver replaced.

``fwd`` / ``bwd`` are the transfer functions ``TaintEngine`` applied to
whole taint sets before its rows were written down per statement kind;
``rows`` probes them on singletons, as the engine once compiled its rows.
``forward_facts`` / ``closure_facts`` are the bodies the engine's queries
had before the worklist solver (``self`` became ``engine``; the closure
memo is dropped): they re-apply ``fwd`` / ``bwd`` to every node until
nothing changes — slow, and obviously the least fixed point the solver
must reproduce.  The engine shares only call resolution with this module;
``tests/test_taint_solver.py`` checks the two definitions against each
other.
"""

from typing import Dict, FrozenSet, Set, Tuple

from repro.analysis.taint import RET, FactMap, MethodInfo, TaintEngine
from repro.lang.cfg import Node
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
    StoreField,
    While,
)

# Statements that move no reference: the identity in both directions.
IDENTITY = (Send, Assert, If, While)


def fwd(engine: TaintEngine, info: MethodInfo, node: Node, taints: FrozenSet[str]) -> FrozenSet[str]:
    stmt = node.stmt
    if stmt is None or isinstance(stmt, IDENTITY):
        return taints
    if isinstance(stmt, CreateMachine):
        # The destination is a machine id (scalar).
        return taints - {stmt.dst}
    if isinstance(stmt, Assign):
        out = taints - {stmt.dst}
        if stmt.src in taints and info.is_ref(stmt.dst):
            out |= {stmt.dst}
        return out
    if isinstance(stmt, (Const, New, Op, Nondet, External)):
        return taints - {stmt.dst}
    if isinstance(stmt, LoadField):
        out = taints - {stmt.dst}
        if "this" in taints and info.is_ref(stmt.dst):
            out |= {stmt.dst}
        return out
    if isinstance(stmt, StoreField):
        if stmt.src in taints:
            return taints | {"this"}
        return taints
    if isinstance(stmt, Return):
        if stmt.var is not None and stmt.var in taints:
            return taints | {RET}
        return taints
    if isinstance(stmt, Call):
        summary, key = engine.resolve_call(info, stmt)
        out = set(taints)
        if stmt.dst is not None:
            out.discard(stmt.dst)
        for role, actual in engine.call_role_pairs(stmt, key):
            if actual not in taints:
                continue
            for out_role in summary.flow(role):
                target = engine.role_to_actual(
                    stmt, engine.methods.get(key) if key else None, out_role
                )
                if target is not None and info.is_ref(target):
                    out.add(target)
        return frozenset(out)
    return taints


def bwd(engine: TaintEngine, info: MethodInfo, node: Node, taints: FrozenSet[str]) -> FrozenSet[str]:
    stmt = node.stmt
    if stmt is None or isinstance(stmt, IDENTITY):
        return taints
    if isinstance(stmt, CreateMachine):
        return taints - {stmt.dst}
    if isinstance(stmt, Assign):
        out = taints - {stmt.dst}
        if stmt.dst in taints and info.is_ref(stmt.src):
            out |= {stmt.src}
        return out
    if isinstance(stmt, (Const, New, Op, Nondet, External)):
        return taints - {stmt.dst}
    if isinstance(stmt, LoadField):
        out = taints - {stmt.dst}
        if stmt.dst in taints:
            out |= {"this"}
        return out
    if isinstance(stmt, StoreField):
        # this@after reaches old-this's heap *and* src's heap: either
        # may hold the overlap object.
        if "this" in taints and info.is_ref(stmt.src):
            return taints | {stmt.src}
        return taints
    if isinstance(stmt, Return):
        if RET in taints and stmt.var is not None and info.is_ref(stmt.var):
            return taints | {stmt.var}
        return taints
    if isinstance(stmt, Call):
        summary, key = engine.resolve_call(info, stmt)
        callee = engine.methods.get(key) if key is not None else None
        out = set(taints)
        if stmt.dst is not None:
            out.discard(stmt.dst)
        for role, actual in engine.call_role_pairs(stmt, key):
            for out_role in summary.flow(role):
                target = engine.role_to_actual(stmt, callee, out_role)
                tainted_after = (
                    stmt.dst in taints if out_role == RET else (target in taints)
                )
                if tainted_after and info.is_ref(actual):
                    out.add(actual)
        return frozenset(out)
    return taints


def rows(engine: TaintEngine, info: MethodInfo, node: Node):
    """Node's (forward, backward) rows, probed: a transfer function treats
    only the variables its statement names specially (``return`` names
    ``$ret``), so probing it on those singletons yields the whole
    relation; every other variable maps to itself."""
    stmt = node.stmt
    if stmt is None or isinstance(stmt, IDENTITY):
        return None, None
    # A literal operand (``ir.LITERALS``) is no variable, but the built
    # rows map it like one (``n := 0`` flows "0" into ``n``): probe those
    # too; on a statement that does not hold one the probe is the identity.
    named = set(stmt.vars_occurring()) | LITERALS
    if isinstance(stmt, Return):
        named.add(RET)
    forward: Dict[str, Tuple[str, ...]] = {}
    backward: Dict[str, Tuple[str, ...]] = {}
    for var in named:
        single = frozenset((var,))
        after = fwd(engine, info, node, single)
        if after != single:
            forward[var] = tuple(after)
        before = bwd(engine, info, node, single)
        if before != single:
            backward[var] = tuple(before)
    return forward or None, backward or None


def forward_facts(
    engine: TaintEngine,
    info: MethodInfo,
    seeds: Dict[int, FrozenSet[str]],
) -> FactMap:
    """Forward-only propagation; ``seeds`` maps node index -> vars
    injected into that node's IN set."""
    ins: Dict[int, Set[str]] = {n.index: set() for n in info.cfg.nodes}
    outs: Dict[int, Set[str]] = {n.index: set() for n in info.cfg.nodes}
    for index, vars_ in seeds.items():
        ins[index] |= vars_
    changed = True
    while changed:
        changed = False
        for node in info.cfg.nodes:
            in_set = set(ins[node.index])
            for pred in node.preds:
                in_set |= outs[pred.index]
            if in_set != ins[node.index]:
                ins[node.index] = in_set
                changed = True
            out_set = set(fwd(engine, info, node, frozenset(in_set)))
            if out_set != outs[node.index]:
                outs[node.index] = out_set
                changed = True
    return FactMap(
        {k: frozenset(v) for k, v in ins.items()},
        {k: frozenset(v) for k, v in outs.items()},
    )


def closure_facts(
    engine: TaintEngine, info: MethodInfo, seed_var: str, seed_node: Node
) -> FactMap:
    """Bidirectional may-overlap closure for seed (var at entry of node)."""
    ins: Dict[int, Set[str]] = {n.index: set() for n in info.cfg.nodes}
    outs: Dict[int, Set[str]] = {n.index: set() for n in info.cfg.nodes}
    ins[seed_node.index].add(seed_var)
    changed = True
    while changed:
        changed = False
        for node in info.cfg.nodes:
            in_set = set(ins[node.index])
            for pred in node.preds:
                in_set |= outs[pred.index]  # forward along edges
            in_set |= bwd(engine, info, node, frozenset(outs[node.index]))
            if in_set != ins[node.index]:
                ins[node.index] = in_set
                changed = True
            out_set = set(outs[node.index])
            out_set |= fwd(engine, info, node, frozenset(in_set))
            for succ in node.succs:
                out_set |= ins[succ.index]  # backward along edges
            if out_set != outs[node.index]:
                outs[node.index] = out_set
                changed = True
    return FactMap(
        {k: frozenset(v) for k, v in ins.items()},
        {k: frozenset(v) for k, v in outs.items()},
    )


class ReferenceEngine(TaintEngine):
    """A taint engine that answers every query with the naive drivers, so
    a whole analysis (summaries, gives-up, verdicts) can be run on the
    oracle and compared with the real one."""

    def forward_facts(self, info, seeds):
        return forward_facts(self, info, seeds)

    def closure_facts(self, info, seed_var, seed_node):
        return closure_facts(self, info, seed_var, seed_node)
