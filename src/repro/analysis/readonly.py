"""The read-only extension (the paper's stated future work, Section 8).

"We found that a reoccurring pattern of false positives involved sending
the same data to multiple machines where the receivers would only read
the data.  We could address such false positives by introducing a read
only analysis."  Seven residual MultiPaxos/AsyncSystem false positives in
Table 1 have exactly this shape: a machine stores a reference in a field,
sends it to M2, and later sends the same field to M3 — everyone only
reads.

A remaining ownership violation is downgraded when sharing is read-only
on every side:

* *sender side*: every condition-3 flagged use is a pure read (tracked by
  the ownership checker), and — for condition-1 violations, where the
  machine retains field access — no method of the machine mutates heap it
  loads out of its fields;
* *receiver side*: every handler of the sent event treats its payload as
  read-only (the payload role is absent from the handler's mutation
  summary and its gives-up set: a receiver that forwards or mutates the
  payload breaks the sharing discipline).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

from ..lang.ir import Call, CreateMachine, External, LoadField, New, Program, Send, StoreField
from .ownership import OwnershipAnalysis, OwnershipViolation
from .taint import MethodInfo, TaintEngine


class ReadOnlyAnalysis:
    def __init__(self, program: Program, ownership: OwnershipAnalysis) -> None:
        self.program = program
        self.ownership = ownership
        self.taint = ownership.taint
        self._event_cache: Dict[str, bool] = {}
        self._machine_cache: Dict[str, bool] = {}

    # ------------------------------------------------------------------
    def event_is_readonly(self, event: Optional[str]) -> bool:
        """All handlers of ``event``, across all machines, only read their
        payload."""
        if event is None:
            return False
        if event in self._event_cache:
            return self._event_cache[event]
        verdict = True
        for machine in self.program.machines.values():
            cls = self.program.classes[machine.class_name]
            for handler in machine.handlers:
                if handler.event != event:
                    continue
                method = cls.methods.get(handler.method)
                if method is None:
                    continue
                info = self.taint.methods.get((cls.name, handler.method))
                if info is None:
                    verdict = False
                    break
                summary = self.taint.summaries.get(info.key)
                given = self.ownership.gives_up.get(info.key, frozenset())
                for param in method.params:
                    if not param.is_reference or param.type == "machine":
                        continue
                    if summary is not None and param.name in summary.mutates:
                        verdict = False
                    if param.name in given:
                        verdict = False
            if not verdict:
                break
        self._event_cache[event] = verdict
        return verdict

    def machine_reads_fields_only(self, machine_name: str, fields=None) -> bool:
        """No method of the machine mutates heap loaded from its fields
        (overwriting the fields themselves is fine — mutation of the
        *referenced objects* is what breaks read-only sharing).  When
        ``fields`` is given, only loads of those fields are considered —
        the fields the given-up heap actually flows through."""
        cache_key = (machine_name, fields)
        if cache_key in self._machine_cache:
            return self._machine_cache[cache_key]
        methods = self.ownership.machine_methods(machine_name)
        # Only transfers of heap that overlaps the machine's own fields
        # can expose field-loaded values cross-state; a send of a freshly
        # built, never-stored payload is irrelevant here.
        gives_up_somewhere = {
            info.decl.name
            for info in methods
            if any(
                self._site_touches_fields(info, site)
                for site in self.ownership.give_up_sites(info)
            )
        }
        verdict = True
        for info in methods:
            # Cross-state ordering is unknown: if any *other* handler
            # transfers ownership, every mutating use here may follow it.
            others_transfer = bool(gives_up_somewhere - {info.decl.name})
            if not self._loads_used_readonly(
                info, assume_post=others_transfer, fields=fields
            ):
                verdict = False
                break
        self._machine_cache[cache_key] = verdict
        return verdict

    def _freshly_initialized(self, info: MethodInfo, load_node) -> bool:
        """Every path from Entry to ``load_node`` stores a fresh value
        (one not overlapping prior machine state) into the loaded field."""
        field = load_node.stmt.field
        fresh_stores = set()
        for node in info.cfg.statement_nodes():
            stmt = node.stmt
            if not isinstance(stmt, StoreField) or stmt.field != field:
                continue
            if self._definitely_fresh(info, node, stmt.src):
                fresh_stores.add(node)
        if not fresh_stores:
            return False
        # Is the load reachable from Entry when the fresh stores block?
        stack = [info.cfg.entry]
        seen = set()
        while stack:
            node = stack.pop()
            if node in seen or node in fresh_stores:
                continue
            seen.add(node)
            if node is load_node:
                return False
            stack.extend(node.succs)
        return True

    def _definitely_fresh(self, info: MethodInfo, use_node, var: str) -> bool:
        """Every definition of ``var`` reaching ``use_node`` is a fresh
        allocation (``new``/``external``).  Reaching-definitions walk —
        the overlap closure cannot answer this (the store's own effect
        would pollute the query)."""
        stack = list(use_node.preds)
        seen = set()
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stmt = node.stmt
            if stmt is not None and var in stmt.vars_defined():
                if isinstance(stmt, (New, External)):
                    continue  # fresh along this path; stop walking it
                return False
            if node.is_entry:
                return False  # parameter or uninitialized: not fresh
            stack.extend(node.preds)
        return True

    def _site_touches_fields(self, info: MethodInfo, site) -> bool:
        """Whether a give-up site's heap may overlap the machine state."""
        closure = self.taint.closure_facts(info, site.var, site.node)
        return any(
            "this" in closure.out_of(node)
            for node in info.cfg.statement_nodes()
        )

    def _loads_used_readonly(
        self, info: MethodInfo, assume_post: bool = False, fields=None
    ) -> bool:
        """No mutation of field-loaded heap that could follow a transfer.

        A mutating use only breaks read-only sharing when it can execute
        *after* the data may have been given up: within one handler, that
        means reachable from one of its give-up sites; mutations that
        strictly precede every transfer (building a batch before sending
        it) are the normal construction phase.
        """
        sites = self.ownership.give_up_sites(info)
        for node in info.cfg.statement_nodes():
            if not isinstance(node.stmt, LoadField):
                continue
            if fields is not None and node.stmt.field not in fields:
                continue
            loaded = node.stmt.dst
            if not info.is_ref(loaded):
                continue
            seeds = {succ.index: frozenset({loaded}) for succ in node.succs}
            facts = self.taint.forward_facts(info, seeds)
            # Only transfers that may involve *this* loaded value put
            # later mutations of it at risk.
            post_transfer = set()
            for site in sites:
                if site.var in facts.in_of(site.node):
                    post_transfer |= info.cfg.reachable_from(site.node)
            # The pre-transfer "construction phase" exemption is only
            # valid when the field was freshly re-initialized on every
            # path to this load — otherwise the loaded value may be the
            # one a *previous invocation* of this handler already sent.
            construction = self._freshly_initialized(info, node)
            for later in info.cfg.statement_nodes():
                stmt = later.stmt
                if not isinstance(stmt, Call):
                    continue
                pre_transfer_ok = construction and later not in post_transfer
                if not assume_post and pre_transfer_ok:
                    continue
                tainted = facts.in_of(later)
                summary, key = self.taint.resolve_call(info, stmt)
                for role, actual in self.taint.call_role_pairs(stmt, key):
                    if actual in tainted and role in summary.mutates:
                        return False
        return True

    # ------------------------------------------------------------------
    def suppresses(self, machine_name: str, violation: OwnershipViolation) -> bool:
        """Whether read-only sharing justifies suppressing the violation."""
        if not violation.readonly_uses_only:
            # A flagged mutating use is final; a flagged *re-send* (or
            # re-share at creation) of the same data is the paper's
            # sharing pattern itself — acceptable when every receiver is
            # read-only.
            for use, overlapping in violation.flagged_uses:
                stmt = use.stmt
                if isinstance(stmt, Send):
                    if not self.event_is_readonly(stmt.event):
                        return False
                elif isinstance(stmt, CreateMachine):
                    if not self.creation_is_readonly(stmt.machine):
                        return False
                elif not self.ownership._is_readonly_use(
                    violation.site.info, use, set(overlapping)
                ):
                    return False
        conditions = {c for c, _ in violation.failures}
        if 2 in conditions:
            return False  # aliasing at the give-up node is not a sharing issue
        if violation.site.kind == "send":
            if not self.event_is_readonly(violation.site.event):
                return False
        elif violation.site.kind == "create":  # noqa: SIM114
            # Sharing a start payload (e.g. the same machine list handed
            # to several children, as Figure 1's Workers list) is fine
            # when every created machine's initial handler only reads it.
            stmt = violation.site.node.stmt
            created = getattr(stmt, "machine", None)
            if created is None or not self.creation_is_readonly(created):
                return False
        if 1 in conditions and not self.machine_reads_fields_only(
            machine_name, violation.loaded_fields
        ):
            return False
        return True

    def creation_is_readonly(self, machine_name: str) -> bool:
        """The machine's initial handler neither mutates nor re-sends its
        creation payload."""
        machine = self.program.machines.get(machine_name)
        if machine is None:
            return False
        cls = self.program.classes[machine.class_name]
        method = cls.methods.get(machine.initial)
        if method is None:
            return True
        info = self.taint.methods.get((cls.name, machine.initial))
        if info is None:
            return False
        summary = self.taint.summaries.get(info.key)
        given = self.ownership.gives_up.get(info.key, frozenset())
        for param in method.params:
            if not param.is_reference or param.type == "machine":
                continue
            if summary is not None and param.name in summary.mutates:
                return False
            if param.name in given:
                return False
        return True
