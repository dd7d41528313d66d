"""Inter-procedural taint tracking implementing ``may_overlap`` (Sec. 5.1).

The paper implements its heap-overlap predicates "through an
inter-procedural taint tracking analysis.  The analysis is flow- and
context-sensitive. ... Our summary function is member variable
insensitive, i.e. when we note in our analysis that a member of an object
should become tainted, we taint the whole object instead."

Two queries are provided, both answered by one sparse solver:

``closure_facts`` (bidirectional)
    Computes, for a seed ``(v, N)``, the set of variables at every program
    point that may reach a heap object reachable from ``v`` on entry to
    ``N``.  Facts propagate forward through assignments *and* backward
    (e.g. ``tainted(ret, Exit)(Entry) = {this}`` for Example 4.1's
    ``get_next``): the paper's ``tainted`` function relates arbitrary node
    pairs, which requires tracking value flows in both directions.

``forward_facts`` (forward-only)
    Used for condition 3 of Section 5.3 (uses *after* the give-up point)
    and for method summaries.  Seeded with the full overlap closure at the
    give-up point, forward propagation is sound for temporally-later uses
    while keeping the strong updates that make the cross-state analysis
    precise (a handler's fresh payload kills stale taint — see
    Example 5.5 and the xSA discussion in DESIGN.md).

Every transfer function is distributive (``f(S)`` is the union of
``f({v})`` over ``v`` in ``S``, and ``f({})`` is empty), so a node acts on
each variable separately: a *row* ``var -> vars`` that is the identity
except on the few variables the statement names.  The rows are the
transfer functions: ``TaintEngine._rows`` writes them down per statement
kind (``tests/reference_taint.py`` keeps the set-level functions as the
test oracle they are checked against).  Rows are compiled once per method
and shared by every query on it; a query is then reachability over facts
``(node, in|out, var)``, which derives exactly the least fixed point of
the dataflow equations while touching only the facts that hold
(``docs/analysis.md`` has the argument).

Context sensitivity comes from per-method summaries: for each input role
(``this`` or a formal parameter) the summary records the output roles
(including the pseudo-role ``$ret``) its taint may flow to, plus the roles
whose reachable heap the method may *mutate* (used by the read-only
extension).  Summaries are computed callees first, over the strongly
connected components of the call graph; a recursive component is iterated
to its fixed point, which it reaches because roles and methods are finite
and flows only grow.

Library calls without source are havocked: "each heap object reachable
before the call is reachable from all variables involved in the call once
the call returns" (Section 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

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
    StoreField,
    While,
    is_scalar,
)

RET = "$ret"
MethodKey = Tuple[str, str]  # (class name, method name)


@dataclass
class Summary:
    """Taint summary of one method.

    ``flows[r]`` — output roles tainted at exit when input role ``r`` is
    tainted at entry.  ``mutates`` — input roles whose reachable heap the
    method may write.  ``sends`` — whether the method (transitively)
    performs a send.
    """

    flows: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    mutates: FrozenSet[str] = frozenset()
    sends: bool = False

    def flow(self, role: str) -> FrozenSet[str]:
        return self.flows.get(role, frozenset())


def havoc_summary(arity: int) -> Summary:
    """The conservative summary for calls into code without source."""
    roles = ["this"] + [f"$fp{i}" for i in range(arity)]
    every = frozenset(roles + [RET])
    return Summary(
        flows={r: every for r in roles},
        mutates=frozenset(roles),
        sends=False,
    )


@dataclass
class FactMap:
    """Per-node IN/OUT taint sets of one intra-procedural run."""

    ins: Dict[int, FrozenSet[str]]
    outs: Dict[int, FrozenSet[str]]

    def in_of(self, node: Node) -> FrozenSet[str]:
        return self.ins.get(node.index, frozenset())

    def out_of(self, node: Node) -> FrozenSet[str]:
        return self.outs.get(node.index, frozenset())


class MethodInfo:
    """Resolved method: declaration, CFG and reference-variable typing."""

    def __init__(
        self, class_name: str, decl: MethodDecl, cfg: Optional[Cfg] = None
    ) -> None:
        self.class_name = class_name
        self.decl = decl
        self.cfg = cfg if cfg is not None else Cfg(decl)
        self.ref_vars: Set[str] = {"this"}
        self._types: Dict[str, str] = {"this": class_name}
        for var in list(decl.params) + list(decl.locals):
            self._types[var.name] = var.type
            if var.is_reference and var.type != "machine":
                self.ref_vars.add(var.name)

    def is_ref(self, name: str) -> bool:
        if name in self.ref_vars:
            return True
        # Unknown names are literals or untyped temporaries; temporaries
        # are declared by the frontends, so unknowns are literals: scalar.
        return False

    def type_of(self, name: str) -> Optional[str]:
        return self._types.get(name)

    @property
    def key(self) -> MethodKey:
        return (self.class_name, self.decl.name)


# Statements that move no reference: the identity in both directions.
_IDENTITY = (Send, Assert, If, While)
# Statements that only give ``dst`` a fresh value: they kill it.
_KILLS = (Const, New, Op, Nondet, External, CreateMachine)


def _row(
    kill: Tuple[str, ...], edges: List[Tuple[str, str]]
) -> Optional[Dict[str, Tuple[str, ...]]]:
    """The row ``var -> vars`` of a node that kills ``kill`` and adds
    ``edges``; variables it maps to themselves are left out, and ``None``
    stands for the identity."""
    targets: Dict[str, Set[str]] = {var: set() for var in kill}
    for source, target in edges:
        targets.setdefault(source, {source}).add(target)
    row = {var: tuple(to) for var, to in targets.items() if to != {var}}
    return row or None


class _Flow:
    """Compiled flow relation of one method.

    ``succs`` / ``preds`` are the CFG edges by node index (a node's index is
    its position in ``cfg.nodes``); ``fwd[i]`` / ``bwd[i]`` are node ``i``'s
    rows, ``var -> vars`` for the variables the transfer function does not
    map to themselves, or ``None`` when the whole node is the identity.
    ``calls`` lists the call nodes, whose rows depend on callee summaries
    and carry the summary ``epoch`` they were built at; ``closures``
    memoizes ``closure_facts`` per ``(var, node index)``.
    """

    __slots__ = ("succs", "preds", "fwd", "bwd", "calls", "epoch", "closures")

    def __init__(self, cfg: Cfg) -> None:
        nodes = cfg.nodes
        self.succs = [tuple(s.index for s in n.succs) for n in nodes]
        self.preds = [tuple(p.index for p in n.preds) for n in nodes]
        self.fwd: List[Optional[Dict[str, Tuple[str, ...]]]] = [None] * len(nodes)
        self.bwd: List[Optional[Dict[str, Tuple[str, ...]]]] = [None] * len(nodes)
        self.calls = [n for n in nodes if isinstance(n.stmt, Call)]
        self.epoch = -1
        self.closures: Dict[Tuple[str, int], FactMap] = {}


class TaintEngine:
    """Whole-program taint engine with memoized per-seed queries."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self.methods: Dict[MethodKey, MethodInfo] = {}
        for cls in program.classes.values():
            for method in cls.methods.values():
                info = MethodInfo(cls.name, method)
                self.methods[info.key] = info
        self._machine_classes = frozenset(
            m.class_name for m in program.machines.values()
        )
        self._builtin_summaries: Dict[MethodKey, Summary] = {
            (cls.name, method): Summary(
                flows=dict(entry.get("flows", {})),
                mutates=frozenset(entry.get("mutates", ())),
                sends=bool(entry.get("sends", False)),
            )
            for cls in program.classes.values()
            if cls.taint_summary is not None
            for method, entry in cls.taint_summary.items()
        }
        self._havoc_summaries: Dict[int, Summary] = {}
        self.summaries: Dict[MethodKey, Summary] = {}
        # Everything derived from summaries (call rows, memoized closures)
        # is stamped with the epoch it was built at; the epoch advances
        # whenever a summary changes.
        self._epoch = 0
        self._flows: Dict[MethodInfo, _Flow] = {}
        self.counters: Dict[str, int] = dict.fromkeys(
            (
                "methods_summarized",
                "queries",
                "cache_hits",
                "facts_derived",
                "rows_compiled",
            ),
            0,
        )
        self._compute_summaries()

    # ------------------------------------------------------------------
    # Call resolution
    # ------------------------------------------------------------------
    def _havoc(self, arity: int) -> Summary:
        summary = self._havoc_summaries.get(arity)
        if summary is None:
            summary = self._havoc_summaries[arity] = havoc_summary(arity)
        return summary

    def resolve_call(self, caller: MethodInfo, stmt: Call) -> Tuple[Optional[Summary], Optional[MethodKey]]:
        """Summary for a call site, or a havoc summary when unresolvable.
        Summaries are shared between call sites: read, never modify."""
        recv_type = caller.type_of(stmt.recv)
        if recv_type is None or is_scalar(recv_type) or recv_type == "machine":
            return self._havoc(len(stmt.args)), None
        cls = self.program.classes.get(recv_type)
        if cls is None:
            return self._havoc(len(stmt.args)), None
        key = (cls.name, stmt.method)
        if cls.taint_summary is not None:
            summary = self._builtin_summaries.get(key)
            return (summary if summary is not None else self._havoc(len(stmt.args))), None
        if key not in self.methods:
            return self._havoc(len(stmt.args)), None
        return self.summaries.get(key, Summary()), key

    @staticmethod
    def role_to_actual(stmt: Call, callee: Optional[MethodInfo], role: str) -> Optional[str]:
        """Map a callee role to the caller-side actual variable."""
        if role == "this":
            return stmt.recv
        if role == RET:
            return stmt.dst
        if role.startswith("$fp"):
            index = int(role[3:])
            return stmt.args[index] if index < len(stmt.args) else None
        if callee is not None:
            for index, param in enumerate(callee.decl.params):
                if param.name == role:
                    return stmt.args[index] if index < len(stmt.args) else None
        return None

    def call_role_pairs(self, stmt: Call, key: Optional[MethodKey]) -> List[Tuple[str, str]]:
        """(role, actual) pairs for the call's inputs."""
        pairs = [("this", stmt.recv)]
        callee = self.methods.get(key) if key is not None else None
        for index, arg in enumerate(stmt.args):
            if callee is not None and index < len(callee.decl.params):
                pairs.append((callee.decl.params[index].name, arg))
            else:
                pairs.append((f"$fp{index}", arg))
        return pairs

    # ------------------------------------------------------------------
    # The flow relation
    # ------------------------------------------------------------------
    def _rows(self, info: MethodInfo, node: Node):
        """Node's (forward, backward) rows: the transfer functions, written
        down once per statement kind.  A statement overwrites its ``kill``
        variables and adds ``source -> target`` edges in each direction;
        every other variable maps to itself."""
        stmt = node.stmt
        if stmt is None or isinstance(stmt, _IDENTITY):
            return None, None
        self.counters["rows_compiled"] += 1
        is_ref = info.is_ref
        kill: Tuple[str, ...] = ()
        fwd: List[Tuple[str, str]] = []
        bwd: List[Tuple[str, str]] = []
        if isinstance(stmt, Assign):
            kill = (stmt.dst,)
            if is_ref(stmt.dst):
                fwd.append((stmt.src, stmt.dst))
            if is_ref(stmt.src):
                bwd.append((stmt.dst, stmt.src))
        elif isinstance(stmt, LoadField):
            kill = (stmt.dst,)
            if is_ref(stmt.dst):
                fwd.append(("this", stmt.dst))
            bwd.append((stmt.dst, "this"))
        elif isinstance(stmt, StoreField):
            # this@after reaches old-this's heap *and* src's heap: either
            # may hold the overlap object.
            fwd.append((stmt.src, "this"))
            if is_ref(stmt.src):
                bwd.append(("this", stmt.src))
        elif isinstance(stmt, Return):
            if stmt.var is not None:
                fwd.append((stmt.var, RET))
                if is_ref(stmt.var):
                    bwd.append((RET, stmt.var))
        elif isinstance(stmt, Call):
            summary, key = self.resolve_call(info, stmt)
            callee = self.methods.get(key) if key is not None else None
            if stmt.dst is not None:
                kill = (stmt.dst,)
            for role, actual in self.call_role_pairs(stmt, key):
                for out_role in summary.flow(role):
                    target = self.role_to_actual(stmt, callee, out_role)
                    if target is None:
                        continue
                    if is_ref(target):
                        fwd.append((actual, target))
                    if is_ref(actual):
                        bwd.append((target, actual))
        elif isinstance(stmt, _KILLS):
            # A fresh value (a machine id for ``create``).
            kill = (stmt.dst,)
        return _row(kill, fwd), _row(kill, bwd)

    def _flow(self, info: MethodInfo) -> _Flow:
        """The method's compiled relation, call rows brought up to date."""
        flow = self._flows.get(info)
        if flow is None:
            flow = self._flows[info] = _Flow(info.cfg)
            stale = info.cfg.nodes
        elif flow.epoch != self._epoch:
            stale = flow.calls
        else:
            return flow
        for node in stale:
            flow.fwd[node.index], flow.bwd[node.index] = self._rows(info, node)
        if stale:
            flow.closures.clear()
        flow.epoch = self._epoch
        return flow

    def _reach(
        self,
        flow: _Flow,
        seeds: Iterable[Tuple[int, str]],
        bidirectional: bool,
    ) -> FactMap:
        """All facts derivable from ``seeds`` (``var`` in IN of node
        ``index``): the least solution of

            out[n] >= fwd_n(in[n])        in[n] >= out[p], p a predecessor

        and, for the bidirectional closure, also

            in[n] >= bwd_n(out[n])        out[n] >= in[s], s a successor
        """
        succs, preds, fwd, bwd = flow.succs, flow.preds, flow.fwd, flow.bwd
        ins: List[Set[str]] = [set() for _ in succs]
        outs: List[Set[str]] = [set() for _ in succs]
        work: List[Tuple[int, str, bool]] = []
        push = work.append
        for index, var in seeds:
            if var not in ins[index]:
                ins[index].add(var)
                push((index, var, False))
        while work:
            index, var, is_out = work.pop()
            if is_out:
                for succ in succs[index]:
                    facts = ins[succ]
                    if var not in facts:
                        facts.add(var)
                        push((succ, var, False))
                if not bidirectional:
                    continue
                row, facts = bwd[index], ins[index]
            else:
                if bidirectional:
                    for pred in preds[index]:
                        facts = outs[pred]
                        if var not in facts:
                            facts.add(var)
                            push((pred, var, True))
                row, facts = fwd[index], outs[index]
            targets = row.get(var) if row is not None else None
            if targets is None:
                targets = (var,)
            for target in targets:
                if target not in facts:
                    facts.add(target)
                    push((index, target, not is_out))
        counters = self.counters
        counters["queries"] += 1
        counters["facts_derived"] += sum(map(len, ins)) + sum(map(len, outs))
        return FactMap(
            dict(enumerate(map(frozenset, ins))),
            dict(enumerate(map(frozenset, outs))),
        )

    def forward_facts(
        self,
        info: MethodInfo,
        seeds: Dict[int, FrozenSet[str]],
    ) -> FactMap:
        """Forward-only propagation; ``seeds`` maps node index -> vars
        injected into that node's IN set."""
        return self._reach(
            self._flow(info),
            [(index, var) for index, vars_ in seeds.items() for var in vars_],
            bidirectional=False,
        )

    def closure_facts(self, info: MethodInfo, seed_var: str, seed_node: Node) -> FactMap:
        """Bidirectional may-overlap closure for seed (var at entry of node)."""
        flow = self._flow(info)
        cache_key = (seed_var, seed_node.index)
        cached = flow.closures.get(cache_key)
        if cached is not None:
            self.counters["cache_hits"] += 1
            return cached
        result = flow.closures[cache_key] = self._reach(
            flow, [(seed_node.index, seed_var)], bidirectional=True
        )
        return result

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def _compute_summaries(self) -> None:
        """Stratified evaluation over the call graph: components of mutually
        recursive methods in callees-first order, so a method is summarized
        against its callees' final summaries; only a recursive component
        is iterated, from empty summaries up to its own fixed point."""
        for key in self.methods:
            self.summaries[key] = Summary()
        for component, recursive in self._call_components():
            changed = True
            while changed:
                changed = False
                for info in component:
                    old = self.summaries[info.key]
                    if self._summarize(info) != old and recursive:
                        changed = True

    def _call_components(self) -> List[Tuple[List[MethodInfo], bool]]:
        """Strongly connected components of the call graph (Tarjan, with an
        explicit stack), each with whether it contains a cycle.  Tarjan
        completes a component only after every component it calls into."""
        callees: Dict[MethodKey, List[MethodKey]] = {}
        for key, info in self.methods.items():
            targets = (
                self.resolve_call(info, node.stmt)[1]
                for node in info.cfg.statement_nodes()
                if isinstance(node.stmt, Call)
            )
            callees[key] = [t for t in dict.fromkeys(targets) if t is not None]
        components: List[Tuple[List[MethodInfo], bool]] = []
        index: Dict[MethodKey, int] = {}
        low: Dict[MethodKey, int] = {}
        stack: List[MethodKey] = []
        on_stack: Set[MethodKey] = set()
        walk: List[Tuple[MethodKey, Iterator[MethodKey]]] = []

        def enter(key: MethodKey) -> None:
            index[key] = low[key] = len(index)
            stack.append(key)
            on_stack.add(key)
            walk.append((key, iter(callees[key])))

        for root in self.methods:
            if root not in index:
                enter(root)
            while walk:
                key, rest = walk[-1]
                for callee in rest:
                    if callee not in index:
                        enter(callee)
                        break
                    if callee in on_stack:
                        low[key] = min(low[key], index[callee])
                else:
                    walk.pop()
                    if walk:
                        caller = walk[-1][0]
                        low[caller] = min(low[caller], low[key])
                    if low[key] == index[key]:
                        members: List[MethodKey] = []
                        while not members or members[-1] != key:
                            members.append(stack.pop())
                            on_stack.discard(members[-1])
                        components.append(
                            (
                                [self.methods[m] for m in reversed(members)],
                                len(members) > 1 or key in callees[key],
                            )
                        )
        return components

    def _summarize(self, info: MethodInfo) -> Summary:
        roles = ["this"] + [p.name for p in info.decl.params if p.is_reference and p.type != "machine"]
        flows: Dict[str, FrozenSet[str]] = {}
        mutated: Set[str] = set()
        sends = self._method_sends(info)
        for role in roles:
            facts = self.forward_facts(info, {info.cfg.entry.index: frozenset({role})})
            exit_taints = facts.in_of(info.cfg.exit)
            outputs = set()
            for out_role in roles:
                if out_role in exit_taints and out_role != role:
                    outputs.add(out_role)
            if role in exit_taints:
                outputs.add(role)  # identity preserved unless killed
            if RET in exit_taints:
                outputs.add(RET)
            flows[role] = frozenset(outputs)
            if self._role_mutated(info, role, facts):
                mutated.add(role)
        self.counters["methods_summarized"] += 1
        summary = Summary(flows=flows, mutates=frozenset(mutated), sends=sends)
        if summary != self.summaries.get(info.key):
            self._epoch += 1
        self.summaries[info.key] = summary
        return summary

    def _method_sends(self, info: MethodInfo) -> bool:
        for node in info.cfg.statement_nodes():
            if isinstance(node.stmt, (Send, CreateMachine)):
                return True
            if isinstance(node.stmt, Call):
                summary, _key = self.resolve_call(info, node.stmt)
                if summary.sends:
                    return True
        return False

    def _role_mutated(self, info: MethodInfo, role: str, facts: FactMap) -> bool:
        """Whether heap reachable from ``role`` at entry may be written."""
        for node in info.cfg.statement_nodes():
            stmt = node.stmt
            taints = facts.in_of(node)
            if isinstance(stmt, StoreField):
                # The object written is the receiver itself.  A machine
                # instance is never part of a payload (only MachineIds
                # travel), so a store into a *machine's* own field cannot
                # mutate heap reachable from a payload role; for helper
                # objects the receiver may be reachable from a parameter,
                # so overlap is conservatively enough.
                if role == "this":
                    return True
                if "this" in taints and info.class_name not in self._machine_classes:
                    return True
                continue
            if isinstance(stmt, Call):
                summary, key = self.resolve_call(info, stmt)
                for in_role, actual in self.call_role_pairs(stmt, key):
                    if actual in taints and in_role in summary.mutates:
                        return True
        return False
