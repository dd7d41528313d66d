"""The CHESS-style runtime: visible-operation scheduling + optional RD.

It schedules inside a field-write hook, from plain attribute writes deep
in user frames, where a generator coroutine cannot suspend: so it is a
:class:`~repro.testing.threads.ThreadedRuntime`, one OS thread per
machine.  The hook is its own: :meth:`ChessRuntime.execute` swaps an
instrumented ``Machine.__setattr__`` in for the execution and deletes it
afterwards, so no other runtime pays for the interception.  Race
detection is the core calculus's
:class:`~repro.lang.interp.RaceDetector`.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Optional

from ..core.events import Event
from ..core.machine import Machine
from ..lang.interp import RaceDetector, RaceReport
from ..testing.config import Campaign, TargetLike, TestConfig
from ..testing.runtime import _WorkerState
from ..testing.strategies import SchedulingStrategy
from ..testing.threads import ThreadedRuntime


class ChessRuntime(ThreadedRuntime):
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
        self.detector: Optional[RaceDetector] = None
        # id(event) -> the sender's clock at the send (RaceDetector.on_send)
        self._event_clocks: Dict[int, Any] = {}

    def reset(self) -> None:
        super().reset()
        # One detector per execution: the engine reuses the runtime across
        # iterations, and clocks must not leak between them.
        self.detector = RaceDetector() if self.race_detection else None
        self._event_clocks = {}

    @property
    def races(self) -> List[RaceReport]:
        """The races the current (or most recent) execution reported."""
        return self.detector.races if self.detector is not None else []

    # ------------------------------------------------------------------
    def execute(self, main_cls, payload=None):
        def instrumented_setattr(machine, name, value):
            if not name.startswith("_"):  # the runtime's own slots
                self._on_field_write(machine, name)
            object.__setattr__(machine, name, value)

        Machine.__setattr__ = instrumented_setattr
        try:
            return super().execute(main_cls, payload)
        finally:
            del Machine.__setattr__

    # ------------------------------------------------------------------
    # Visible operations: every queue op is a scheduling point
    # ------------------------------------------------------------------
    def on_visible_operation(self, machine: Machine, kind: str) -> None:
        self._schedule_if_running()

    def on_event_dequeued(self, machine: Machine, event: Event) -> None:
        super().on_event_dequeued(machine, event)  # monitor dequeue mirroring
        if self.detector is not None:
            self.detector.on_receive(
                machine.id.value, self._event_clocks.pop(id(event), None)
            )
        self._schedule_if_running()

    def send(self, target, event, sender=None):
        if self.detector is not None and sender is not None:
            self._event_clocks[id(event)] = self.detector.on_send(sender.id.value)
        super().send(target, event, sender=sender)

    def create_machine(self, machine_cls, payload=None, creator=None):
        mid = super().create_machine(machine_cls, payload, creator=creator)
        if self.detector is not None and creator is not None:
            self.detector.on_create(creator.id.value, mid.value)
        return mid

    # ------------------------------------------------------------------
    # Field writes: scheduling point + optional race check
    # ------------------------------------------------------------------
    def _on_field_write(self, machine: Machine, name: str) -> None:
        if self.detector is not None:
            # A machine's field is keyed by its owner, and only the owner
            # writes it: payload objects are not instrumented.
            mid = machine.id.value
            self.detector.on_access(mid, mid, machine, name, True, "field write")
        self._schedule_if_running()

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
