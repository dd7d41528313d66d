"""Gives-up analysis (Figure 5) and respects-ownership checks (Sec. 5.3).

Ownership discipline: "an action assumes ownership of any payload it
receives and any object it creates; it gives up ownership of any payload
it sends as part of an event.  As long as each object has a unique owner,
data races cannot occur" (Section 1).

``gives_up(m)`` is the set of input roles (formal parameters, extended
with ``this`` for helper methods that send their own state) from which a
heap object may be reachable that is also reachable from a variable
occurring in a send statement — computed as a fixed point because methods
may be mutually recursive (Figure 5).

A node that gives up a variable ``w`` respects ownership iff (Sec. 5.3):

1. no node ``N'`` on a path Entry -> N lets ``this`` reach an object
   reachable from ``w`` at ``N`` (the machine would retain access through
   a field — Example 5.4 flags exactly this);
2. ``w != this`` and no *other* variable occurring in ``N`` overlaps
   ``w`` (aliases entering the same call could resurrect the reference);
3. no variable used on a path N -> Exit overlaps what was given up.

Condition 3 is checked with forward-only propagation seeded with the full
overlap closure at ``N``: sound for temporally-later uses, while strong
updates keep loop re-entries precise (see the module docstring of
:mod:`repro.analysis.taint` and DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..errors import AnalysisDiagnostic
from ..lang.cfg import Node
from ..lang.ir import Call, CreateMachine, Program, Send
from .taint import MethodInfo, MethodKey, RET, TaintEngine


@dataclass
class GiveUpSite:
    """One occurrence of ownership transfer in a method body."""

    info: MethodInfo
    node: Node
    var: str
    kind: str  # "send" | "create" | "call"
    event: Optional[str] = None  # for sends

    @property
    def loc_key(self) -> str:
        """Stable identity of the give-up site across CFG rebuilds.

        Statements inlined into an xSA driver carry ``origin@loc`` tags;
        base-analysis sites synthesize the same form, so a driver verdict
        can be matched to the base verdict it re-judges.
        """
        loc = self.node.stmt.loc if self.node.stmt is not None else ""
        if "@" in loc:
            return loc
        return f"{self.info.decl.name}@{loc or f'n{self.node.index}'}"


@dataclass
class OwnershipViolation:
    """All failed conditions for one give-up site."""

    site: GiveUpSite
    failures: List[Tuple[int, str]] = field(default_factory=list)  # (condition, detail)
    readonly_uses_only: bool = True  # condition-3 uses were all plain reads
    flagged_uses: List[Tuple[Node, frozenset]] = field(
        default_factory=list
    )  # condition-3 use nodes with the overlapping variables
    loaded_fields: frozenset = frozenset()  # fields whose content overlaps w

    def diagnostics(self, machine: str) -> List[AnalysisDiagnostic]:
        return [
            AnalysisDiagnostic(
                kind="ownership-violation",
                machine=machine,
                method=self.site.info.decl.name,
                node=repr(self.site.node),
                variable=self.site.var,
                condition=condition,
                message=detail,
            )
            for condition, detail in self.failures
        ]


class OwnershipAnalysis:
    """Whole-program gives-up + respects-ownership analysis."""

    def __init__(self, program: Program, taint: Optional[TaintEngine] = None) -> None:
        self.program = program
        self.taint = taint if taint is not None else TaintEngine(program)
        self.gives_up: Dict[MethodKey, FrozenSet[str]] = {}
        self._compute_gives_up()

    # ------------------------------------------------------------------
    # Figure 5: the gives-up fixed point
    # ------------------------------------------------------------------
    def _compute_gives_up(self) -> None:
        for key in self.taint.methods:
            self.gives_up[key] = frozenset()
        changed = True
        while changed:
            changed = False
            for info in self.taint.methods.values():
                new = self._gives_up_of(info)
                if new != self.gives_up[info.key]:
                    self.gives_up[info.key] = new
                    changed = True

    def _gives_up_of(self, info: MethodInfo) -> FrozenSet[str]:
        roles = {"this"} | {
            p.name
            for p in info.decl.params
            if p.is_reference and p.type != "machine"
        }
        given: Set[str] = set()
        for node in info.cfg.statement_nodes():
            for var in self._given_up_vars(info, node):
                closure = self.taint.closure_facts(info, var, node)
                # may_overlap(N, v)_out(Entry, w): w's heap at method entry
                # intersects the sent value's heap at N.
                entry_taints = closure.out_of(info.cfg.entry)
                given |= roles & entry_taints
        return frozenset(given)

    def _given_up_vars(self, info: MethodInfo, node: Node) -> List[str]:
        """Variables whose ownership this node transfers away."""
        stmt = node.stmt
        if isinstance(stmt, Send):
            if stmt.arg is not None and info.is_ref(stmt.arg):
                return [stmt.arg]
            return []
        if isinstance(stmt, CreateMachine):
            if stmt.arg is not None and info.is_ref(stmt.arg):
                return [stmt.arg]
            return []
        if isinstance(stmt, Call):
            _summary, key = self.taint.resolve_call(info, stmt)
            if key is None:
                return []  # library code cannot send
            callee_given = self.gives_up.get(key, frozenset())
            out: List[str] = []
            for role, actual in self.taint.call_role_pairs(stmt, key):
                if role in callee_given and info.is_ref(actual):
                    out.append(actual)
            return out
        return []

    def give_up_sites(self, info: MethodInfo) -> List[GiveUpSite]:
        sites: List[GiveUpSite] = []
        for node in info.cfg.statement_nodes():
            stmt = node.stmt
            kind = (
                "send"
                if isinstance(stmt, Send)
                else "create"
                if isinstance(stmt, CreateMachine)
                else "call"
            )
            event = stmt.event if isinstance(stmt, Send) else None
            for var in self._given_up_vars(info, node):
                sites.append(GiveUpSite(info, node, var, kind, event))
        return sites

    # ------------------------------------------------------------------
    # Section 5.3: respects-ownership conditions
    # ------------------------------------------------------------------
    def check_site(self, site: GiveUpSite) -> Optional[OwnershipViolation]:
        info, node, w = site.info, site.node, site.var
        cfg = info.cfg
        closure = self.taint.closure_facts(info, w, node)
        violation = OwnershipViolation(site)

        # Condition 1: `this` must not reach the given-up heap anywhere on
        # a path from Entry to N.
        for earlier in cfg.reaching(node):
            if "this" in closure.out_of(earlier) and not earlier.is_exit:
                violation.failures.append(
                    (
                        1,
                        f"machine retains access: 'this' may reach the heap "
                        f"of {w!r} at {earlier!r}",
                    )
                )
                break

        # Condition 2: w is not `this`, and no other variable in N aliases w.
        if w == "this":
            violation.failures.append((2, "cannot give up 'this' itself"))
        else:
            occurring = {
                v
                for v in (node.stmt.vars_occurring() if node.stmt else [])
                if info.is_ref(v)
            }
            overlapping = {v for v in occurring if v in closure.in_of(node)}
            extras = overlapping - {w}
            if extras:
                violation.failures.append(
                    (
                        2,
                        f"aliases of {w!r} occur in the give-up node: "
                        f"{sorted(extras)}",
                    )
                )

        # Record which machine fields the given-up heap flows through —
        # the read-only extension scopes its cross-state mutation check to
        # these.  Prefer *stores* (the heap demonstrably entered those
        # fields); fall back to loads for the staged-in-an-earlier-state
        # pattern where this method only reads the field.
        stored = set()
        loaded = set()
        for any_node in cfg.statement_nodes():
            stmt = any_node.stmt
            kind_name = stmt.__class__.__name__ if stmt is not None else ""
            if kind_name == "StoreField" and stmt.src in closure.in_of(any_node):
                stored.add(stmt.field)
            elif kind_name == "LoadField" and stmt.dst in closure.out_of(any_node):
                # Member-insensitive marks flag every load once `this`
                # overlaps; only count the field if its loaded value can
                # actually flow into the transferred variable.
                flow = self.taint.forward_facts(
                    info, {s.index: frozenset({stmt.dst}) for s in any_node.succs}
                )
                if w in flow.in_of(node) or any_node is node:
                    loaded.add(stmt.field)
            elif kind_name == "Call" and stmt.recv == "this":
                # Field accesses inside a self-call whose result overlaps
                # the given-up heap belong to the flow too.
                result_overlaps = (
                    stmt.dst is not None and stmt.dst in closure.out_of(any_node)
                )
                arg_overlaps = any(a in closure.in_of(any_node) for a in stmt.args)
                if result_overlaps or arg_overlaps:
                    callee = self.taint.methods.get((info.class_name, stmt.method))
                    if callee is not None:
                        for inner in callee.cfg.statement_nodes():
                            inner_stmt = inner.stmt
                            inner_kind = inner_stmt.__class__.__name__
                            if inner_kind in ("LoadField", "StoreField"):
                                loaded.add(inner_stmt.field)
        violation.loaded_fields = frozenset(stored | loaded)

        # Condition 3: nothing overlapping w may be *used* after N.
        seed = frozenset(v for v in closure.in_of(node) if info.is_ref(v))
        forward = self.taint.forward_facts(info, {node.index: seed})
        after = cfg.reachable_from(node)
        for later in sorted(after, key=lambda n: n.index):
            if later.stmt is None:
                continue
            if later is node:
                # A loop revisits the give-up node itself: judge it by the
                # facts arriving along its back edges only, not the seed.
                loop_in: Set[str] = set()
                for pred in later.preds:
                    if pred in after:
                        loop_in |= forward.out_of(pred)
                tainted_at = frozenset(loop_in)
            else:
                tainted_at = forward.in_of(later)
            used = {v for v in later.stmt.vars_used() if info.is_ref(v)}
            bad = used & tainted_at
            if bad:
                violation.failures.append(
                    (
                        3,
                        f"{sorted(bad)} may still reach the given-up heap "
                        f"and are used at {later!r}",
                    )
                )
                violation.flagged_uses.append((later, frozenset(bad)))
                if not self._is_readonly_use(info, later, bad):
                    violation.readonly_uses_only = False

        return violation if violation.failures else None

    def _is_readonly_use(self, info: MethodInfo, node: Node, tainted: Set[str]) -> bool:
        """Whether the flagged use only *reads* the overlapping heap —
        input to the read-only extension (Section 8 future work)."""
        stmt = node.stmt
        if isinstance(stmt, (Send, CreateMachine)):
            return False  # a re-send is a second ownership transfer
        if isinstance(stmt, Call):
            summary, key = self.taint.resolve_call(info, stmt)
            callee_given = self.gives_up.get(key, frozenset()) if key else frozenset()
            for role, actual in self.taint.call_role_pairs(stmt, key):
                if actual in tainted and (
                    role in summary.mutates or role in callee_given
                ):
                    return False
            return True
        return True  # assignments, loads, conditions: pure reads

    # ------------------------------------------------------------------
    # Whole-machine / whole-program entry points
    # ------------------------------------------------------------------
    def machine_methods(self, machine_name: str) -> List[MethodInfo]:
        decl = self.program.machines[machine_name]
        cls = self.program.classes[decl.class_name]
        return [
            self.taint.methods[(cls.name, m)]
            for m in cls.methods
            if (cls.name, m) in self.taint.methods
        ]

    def check_machine(self, machine_name: str) -> List[OwnershipViolation]:
        violations: List[OwnershipViolation] = []
        for info in self.machine_methods(machine_name):
            for site in self.give_up_sites(info):
                violation = self.check_site(site)
                if violation is not None:
                    violations.append(violation)
        return violations

    def check_helpers(self) -> List[OwnershipViolation]:
        """Check non-machine classes (helper objects can send too)."""
        machine_classes = {m.class_name for m in self.program.machines.values()}
        violations: List[OwnershipViolation] = []
        for cls_name, cls in self.program.classes.items():
            if cls_name in machine_classes or cls.taint_summary is not None:
                continue
            for method_name in cls.methods:
                info = self.taint.methods.get((cls_name, method_name))
                if info is None:
                    continue
                for site in self.give_up_sites(info):
                    violation = self.check_site(site)
                    if violation is not None:
                        violations.append(violation)
        return violations
