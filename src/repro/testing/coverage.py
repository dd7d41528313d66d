"""Activity coverage: what a campaign *explored*, not just what it found.

The P# tester reports activity coverage alongside bugs — which machine
states, transitions and event flows the explored schedules actually
exercised — because "0 bugs in 100k schedules" only means something when
the schedules visited the program.  This module is that signal for the
reproduction: a mergeable :class:`CoverageMap` (a record,
:mod:`repro.testing.record`) collected at
the runtime's existing hook points (state entry, send, dequeue, halt)
on every worker back-end.

Two universes per machine class make the *deltas* reportable by name:

* the **declared** universe comes from the precompiled dispatch tables
  (:class:`~repro.core.machine.StateInfo`): every state the class
  declares, and every ``(state, event) → state`` transition in its
  ``transitions`` maps — the same tables
  :func:`~repro.core.machine.machine_statistics` counts for Table 1;
* the **visited** universe is what the campaign's schedules entered and
  took, with occurrence counts.

Uncovered states/transitions are simply declared minus visited, so the
report (``python -m repro report``) can *name* what a campaign never
reached.  Maps merge associatively (portfolio shards, checkpoint
resume, future distributed fleets) and fingerprint deterministically,
which is how the cross-carrier bit-identity guarantee is tested: for a
fixed strategy seed, inline and ``ThreadedRuntime`` campaigns produce
*equal* maps.

Collection costs one pointer-is-None check per hook when disabled (the
runtime's ``_hook_state``/``_hook_dequeued``/``_cov``) and one call per
observed event when enabled: the state-entry and dequeue hooks point
straight at the map's recorders.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, List, Optional, Tuple

from .record import (
    ANY, COUNTS, NAMES, SUM, TRIPLE_COUNTS, TRIPLES, Record, field, record,
    records,
)

__all__ = ["CoverageMap", "MachineCoverage"]


@record
class MachineCoverage(Record):
    """Declared-vs-visited coverage of one machine (or monitor) class.

    ``declared_transitions`` entries are ``(state, event, target)`` name
    triples.  Visited tables map names to occurrence counts; a declared
    transition fires only for its exactly-declared event class (the
    dispatch tables never route a subclass event to a base-class
    transition), so every visited transition key is also a declared key.
    """

    declared_states: Tuple[str, ...] = field(NAMES)
    declared_transitions: Tuple[Tuple[str, str, str], ...] = field(TRIPLES)
    is_monitor: bool = field(ANY)
    instances: int = field(SUM)
    halts: int = field(SUM)
    states_visited: Dict[str, int] = field(COUNTS)
    transitions_taken: Dict[Tuple[str, str, str], int] = field(TRIPLE_COUNTS)

    # -- derived ------------------------------------------------------
    def uncovered_states(self) -> List[str]:
        visited = self.states_visited
        return [s for s in self.declared_states if s not in visited]

    def uncovered_transitions(self) -> List[Tuple[str, str, str]]:
        taken = self.transitions_taken
        return [t for t in self.declared_transitions if t not in taken]

    @property
    def state_coverage(self) -> float:
        """Fraction of declared states entered at least once (1.0 when
        the class declares none — vacuously covered)."""
        declared = len(self.declared_states)
        if not declared:
            return 1.0
        return (declared - len(self.uncovered_states())) / declared

    @property
    def transition_coverage(self) -> float:
        declared = len(self.declared_transitions)
        if not declared:
            return 1.0
        return (declared - len(self.uncovered_transitions())) / declared

    def to_json(self) -> Dict[str, object]:
        return {
            "monitor": self.is_monitor,
            "instances": self.instances,
            "halts": self.halts,
            "declared_states": len(self.declared_states),
            "declared_transitions": len(self.declared_transitions),
            "state_coverage": round(self.state_coverage, 4),
            "transition_coverage": round(self.transition_coverage, 4),
            "states_visited": dict(sorted(self.states_visited.items())),
            "transitions_taken": {
                f"{s} --{e}--> {t}": n
                for (s, e, t), n in sorted(self.transitions_taken.items())
            },
            "uncovered_states": self.uncovered_states(),
            "uncovered_transitions": [
                f"{s} --{e}--> {t}" for s, e, t in self.uncovered_transitions()
            ],
        }


@record
class CoverageMap(Record):
    """Mergeable activity coverage of a whole campaign.

    Keyed by machine-class name (``cls.__name__``): the portfolio merges
    maps produced in different processes, where class *objects* differ
    but the program they describe does not.  Event-flow counters
    (``events_sent`` / ``events_dequeued`` / ``events_dropped``) are
    campaign-global, keyed by event-class name; a drop is a message lost
    to a send-to-halted/missing target or to an injected drop fault.
    Merging is associative and commutative up to declared-universe
    ordering, so shard/checkpoint fold order does not matter.

    The ``_classes`` identity cache keeps the hot recording path to one
    dict probe per call; it is transient (no rule: a copy or a decoded
    map starts with an empty one) so maps travel across process
    boundaries without dragging class references along.
    """

    machines: Dict[str, MachineCoverage] = field(records(MachineCoverage))
    events_sent: Dict[str, int] = field(COUNTS)
    events_dequeued: Dict[str, int] = field(COUNTS)
    events_dropped: Dict[str, int] = field(COUNTS)
    _classes: Dict[type, MachineCoverage] = dataclasses.field(
        default_factory=dict, init=False, repr=False
    )

    # -- registration -------------------------------------------------
    def ensure_class(self, cls: type, *, monitor: bool = False) -> MachineCoverage:
        """Register ``cls``'s declared universe (idempotent) and return
        its per-class record.  Never-visited classes still contribute
        their declared states/transitions to the uncovered report."""
        record = self._classes.get(cls)
        if record is not None:
            return record
        name = cls.__name__
        record = self.machines.get(name)
        if record is None:
            states: List[str] = []
            transitions: List[Tuple[str, str, str]] = []
            for state_name, info in sorted(cls._state_infos.items()):
                states.append(state_name)
                for event_cls, target in info.transitions.items():
                    transitions.append((state_name, event_cls.__name__, target))
            record = MachineCoverage(
                tuple(states), tuple(sorted(transitions)), monitor
            )
            self.machines[name] = record
        self._classes[cls] = record
        return record

    # -- recording (called from the runtime's hook points) ------------
    def record_machine(self, cls: type) -> None:
        record = self._classes.get(cls)
        if record is None:
            record = self.ensure_class(cls)
        record.instances += 1

    def record_halt(self, cls: type) -> None:
        record = self._classes.get(cls)
        if record is None:
            record = self.ensure_class(cls)
        record.halts += 1

    def record_entry(self, machine, old_info, event) -> None:
        """One state entry, with the signature of the runtimes'
        ``_hook_state`` so machines call the map directly: ``machine``
        just entered its current state from ``old_info`` (None for the
        initial entry, which counts as a state visit but not a
        transition) on ``event``."""
        record = self._classes.get(type(machine))
        if record is None:
            record = self.ensure_class(type(machine))
        new = machine._current_state.name
        visited = record.states_visited
        visited[new] = visited.get(new, 0) + 1
        if old_info is not None and event is not None:
            key = (old_info.name, type(event).__name__, new)
            taken = record.transitions_taken
            taken[key] = taken.get(key, 0) + 1

    def record_send(self, event, dropped: bool) -> None:
        name = type(event).__name__
        sent = self.events_sent
        sent[name] = sent.get(name, 0) + 1
        if dropped:
            drops = self.events_dropped
            drops[name] = drops.get(name, 0) + 1

    def record_drop(self, event) -> None:
        name = type(event).__name__
        drops = self.events_dropped
        drops[name] = drops.get(name, 0) + 1

    def record_dequeue(self, machine, event) -> None:
        """With the signature of the runtimes' ``_hook_dequeued``."""
        name = type(event).__name__
        dequeued = self.events_dequeued
        dequeued[name] = dequeued.get(name, 0) + 1

    def __bool__(self) -> bool:
        return bool(self.machines or self.events_sent)

    def fingerprint(self) -> str:
        """Deterministic digest of the map's *content* (insertion order
        excluded): equal maps — e.g. the same seeded campaign run on
        different worker back-ends — produce equal fingerprints."""
        canonical = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # -- reporting ----------------------------------------------------
    def to_json(self) -> Dict[str, object]:
        return {
            "machines": {
                name: record.to_json()
                for name, record in sorted(self.machines.items())
            },
            "events": {
                "sent": dict(sorted(self.events_sent.items())),
                "dequeued": dict(sorted(self.events_dequeued.items())),
                "dropped": dict(sorted(self.events_dropped.items())),
            },
        }

    def totals(self) -> Dict[str, int]:
        """Campaign-wide declared/visited tallies (the report header)."""
        declared_states = visited_states = 0
        declared_transitions = visited_transitions = 0
        for record in self.machines.values():
            declared_states += len(record.declared_states)
            visited_states += len(record.declared_states) - len(
                record.uncovered_states()
            )
            declared_transitions += len(record.declared_transitions)
            visited_transitions += len(record.declared_transitions) - len(
                record.uncovered_transitions()
            )
        return {
            "declared_states": declared_states,
            "visited_states": visited_states,
            "declared_transitions": declared_transitions,
            "visited_transitions": visited_transitions,
            "events_sent": sum(self.events_sent.values()),
            "events_dequeued": sum(self.events_dequeued.values()),
            "events_dropped": sum(self.events_dropped.values()),
        }
