"""The CHESS-style runtime: visible-operation scheduling + optional RD."""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Optional, Tuple

from ..core.events import Event
from ..core.machine import Machine, install_field_access_hook
from ..testing.config import Campaign, TargetLike, TestConfig
from ..testing.runtime import BugFindingRuntime, _WorkerState
from ..testing.strategies import SchedulingStrategy


class _VectorClock:
    __slots__ = ("clocks",)

    def __init__(self, clocks: Optional[Dict[int, int]] = None) -> None:
        self.clocks: Dict[int, int] = dict(clocks or {})

    def tick(self, mid: int) -> None:
        self.clocks[mid] = self.clocks.get(mid, 0) + 1

    def join(self, other: "_VectorClock") -> None:
        for mid, clock in other.clocks.items():
            if clock > self.clocks.get(mid, 0):
                self.clocks[mid] = clock

    def copy(self) -> "_VectorClock":
        return _VectorClock(self.clocks)

    def happens_before(self, other: "_VectorClock") -> bool:
        return all(c <= other.clocks.get(m, 0) for m, c in self.clocks.items())


class ChessRuntime(BugFindingRuntime):
    """Bug-finding runtime that schedules at memory-access granularity.

    ``race_detection`` toggles the RD-on / RD-off configurations compared
    in Table 2.
    """

    def __init__(
        self,
        strategy: SchedulingStrategy,
        race_detection: bool = True,
        **kwargs: Any,
    ) -> None:
        if kwargs.get("workers") == "inline":
            # CHESS schedules inside field-access hooks, i.e. from plain
            # attribute writes deep inside user frames — positions a
            # generator coroutine cannot suspend at.
            raise ValueError(
                "ChessRuntime does not support workers='inline'; its "
                "visible-operation scheduling points cannot suspend a "
                "coroutine — use 'pool'"
            )
        if kwargs.get("workers") == "auto":
            # The automatic backend resolution can never pick inline here
            # (see above), so "auto" collapses to the pooled threads.
            kwargs["workers"] = "pool"
        if kwargs.get("faults") is not None:
            # CHESS models shared-memory programs: its visible operations
            # are field accesses, not a network that can drop or a node
            # that can crash-restart.  Refuse rather than silently ignore.
            raise ValueError(
                "ChessRuntime does not support fault injection; faults "
                "model message loss and machine crashes, which have no "
                "counterpart in CHESS's shared-memory scheduling"
            )
        super().__init__(strategy, **kwargs)
        self.race_detection = race_detection
        self.races: List[str] = []
        self._clocks: Dict[int, _VectorClock] = {}
        self._event_clocks: Dict[int, _VectorClock] = {}
        # (machine id value, field) -> last write / reads since last write
        self._writes: Dict[Tuple[int, str], Tuple[int, _VectorClock]] = {}
        self._reads: Dict[Tuple[int, str], List[Tuple[int, _VectorClock]]] = {}

    def reset(self) -> None:
        super().reset()
        # Per-execution race-detection state (the runtime is reused across
        # iterations by the engine; clocks must not leak between them).
        self.races = []
        self._clocks = {}
        self._event_clocks = {}
        self._writes = {}
        self._reads = {}

    # ------------------------------------------------------------------
    def execute(self, main_cls, payload=None):
        install_field_access_hook(self._on_field_access)
        try:
            return super().execute(main_cls, payload)
        finally:
            install_field_access_hook(None)

    # ------------------------------------------------------------------
    # Visible operations: every queue op is a scheduling point
    # ------------------------------------------------------------------
    def on_visible_operation(self, machine: Machine, kind: str) -> None:
        self._schedule_if_running()

    def on_event_dequeued(self, machine: Machine, event: Event) -> None:
        super().on_event_dequeued(machine, event)  # monitor dequeue mirroring
        if self.race_detection:
            snapshot = self._event_clocks.pop(id(event), None)
            clock = self._clock(machine.id.value)
            if snapshot is not None:
                clock.join(snapshot)
            clock.tick(machine.id.value)
        self._schedule_if_running()

    def send(self, target, event, sender=None):
        if self.race_detection and sender is not None:
            clock = self._clock(sender.id.value)
            clock.tick(sender.id.value)
            self._event_clocks[id(event)] = clock.copy()
        super().send(target, event, sender=sender)

    def create_machine(self, machine_cls, payload=None, creator=None):
        mid = super().create_machine(machine_cls, payload, creator=creator)
        if self.race_detection and creator is not None:
            clock = self._clock(creator.id.value)
            clock.tick(creator.id.value)
            self._clock(mid.value).join(clock)
        return mid

    # ------------------------------------------------------------------
    # Field accesses: scheduling point + optional race check
    # ------------------------------------------------------------------
    def _on_field_access(self, machine: Machine, name: str, is_write: bool) -> None:
        if self.race_detection:
            self._check_access(machine.id.value, name, is_write)
        self._schedule_if_running()

    def _check_access(self, mid: int, field: str, is_write: bool) -> None:
        key = (mid, field)  # machine fields: the owner id identifies the object
        clock = self._clock(mid)
        last_write = self._writes.get(key)
        if last_write is not None:
            writer, write_clock = last_write
            if writer != mid and not write_clock.happens_before(clock):
                self.races.append(f"race on field {field!r} of machine {mid}")
        if is_write:
            for reader, read_clock in self._reads.get(key, []):
                if reader != mid and not read_clock.happens_before(clock):
                    self.races.append(f"race on field {field!r} of machine {mid}")
            self._writes[key] = (mid, clock.copy())
            self._reads[key] = []
        else:
            self._reads.setdefault(key, []).append((mid, clock.copy()))

    def _clock(self, mid: int) -> _VectorClock:
        if mid not in self._clocks:
            self._clocks[mid] = _VectorClock({mid: 0})
        return self._clocks[mid]

    def _schedule_if_running(self) -> None:
        current = self._current
        if current is None or self._canceled or self._finished:
            return
        if self._worker_list[current.value].state is not _WorkerState.RUNNING:
            return
        self._schedule(current)


def chess_campaign(
    program: TargetLike,
    payload: Any = None,
    *,
    strategy: SchedulingStrategy,
    race_detection: bool = True,
    **overrides: Any,
) -> Campaign:
    """A :class:`~repro.testing.config.Campaign` on ``program`` wired to
    the CHESS-style runtime and driven by the live ``strategy``;
    ``overrides`` are further :class:`~repro.testing.config.TestConfig`
    fields.  ``campaign.replay()`` runs on the same runtime."""
    config = TestConfig(
        program=program,
        payload=payload,
        runtime_factory=partial(ChessRuntime, race_detection=race_detection),
        **overrides,
    )
    return Campaign(config, strategy=strategy)
