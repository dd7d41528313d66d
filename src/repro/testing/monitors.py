"""Specification monitors: safety and liveness state machines.

The paper's testing story rests on *specification machines* (Section 7.2):
monitors that observe the events a program exchanges and flag violations.
A safety monitor asserts invariants over the observed event stream ("at
most one leader per term").  A liveness monitor partitions its states into
**hot** and **cold**: hot states are "something is still owed" states
(a request is pending, the token has not completed its circuit) and cold
states are "the obligation was met" states.  Under a *fair* schedule, a
monitor that stays hot beyond a temperature threshold — or is hot when
the program terminates — witnesses a liveness violation, without the
false positives the bare depth-bound heuristic produces under unfair
strategies like DFS or PCT.

Monitors are :class:`~repro.core.machine.Machine` subclasses, so they use
the exact state/transition/action vocabulary of ordinary machines, but
they are **passive**: they never hold a scheduler slot, never send events,
never create machines, and never consume controlled nondeterminism.  The
runtime invokes them *synchronously* at its existing scheduling points
(send / dequeue / halt), so attaching monitors cannot perturb the
strategy's decision sequence — for a fixed seed, a program explores the
same schedules with and without its specifications attached.

Authoring a monitor::

    class ProgressMonitor(Monitor):
        observes = (ERequest, EGranted)     # auto-mirrored on send

        @cold
        class Satisfied(State):
            initial = True
            transitions = {ERequest: "Starved"}
            ignored = (EGranted,)

        @hot
        class Starved(State):
            transitions = {EGranted: "Satisfied"}
            ignored = (ERequest,)

Events listed in ``observes`` are mirrored to the monitor whenever any
machine *sends* one; ``observes_dequeue`` mirrors at delivery (dequeue)
time instead.  ``EMachineHalted`` (payload: the halted ``MachineId``) is
mirrored when a machine halts.  Programs can also invoke a monitor
explicitly with ``self.monitor(ProgressMonitor, event)`` — a no-op when
the monitor class is not attached to the runtime, so instrumented
programs run unchanged without their specifications.

Monitors are attached per campaign: ``BugFindingRuntime(...,
monitors=[ProgressMonitor])``, or through ``TestConfig(monitors=...)`` and
any ``Campaign`` shape (monitor *classes* travel to portfolio workers —
they pickle by reference like machine classes).
"""

from __future__ import annotations

from typing import Any, Tuple, Type

from ..core.events import Event, MachineId
from ..core.machine import DISP_DEFER, DISP_IGNORE, Machine
from ..errors import (
    AssertionFailure, MachineDeclarationError, MonitorError, PSharpError, UnhandledEventError,
)

HOT = "hot"
COLD = "cold"


def hot(state_cls: type) -> type:
    """Class decorator marking a monitor state as *hot* (liveness pending).

    A liveness monitor that remains in hot states for more than the
    runtime's ``max_hot_steps`` consecutive fair steps — or that is hot
    when the program terminates — reports a liveness violation.
    """
    state_cls.temperature = HOT
    return state_cls


def cold(state_cls: type) -> type:
    """Class decorator marking a monitor state as *cold* (obligation met).

    Entering any non-hot state resets the monitor's temperature; ``@cold``
    documents the reset explicitly in the specification's source.
    """
    state_cls.temperature = COLD
    return state_cls


class EMachineHalted(Event):
    """Mirrored to observing monitors when a machine halts.

    The payload is the halted machine's :class:`MachineId`.  Listed in a
    monitor's ``observes`` tuple like any other event class.
    """


class Monitor(Machine):
    """Base class of specification monitors.  See the module docstring.

    Class attributes
    ----------------
    observes:
        Event classes mirrored to this monitor when any machine *sends*
        one (subclasses of a listed event class are mirrored too).
    observes_dequeue:
        Event classes mirrored when a machine *dequeues* one — delivery
        order rather than send order.
    """

    observes: Tuple[Type[Event], ...] = ()
    observes_dequeue: Tuple[Type[Event], ...] = ()

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        # Monitors have no inbox, so deferral is meaningless; reject it at
        # declaration time instead of silently dropping observations.
        for info in cls._state_infos.values():
            if info.deferred:
                raise MachineDeclarationError(
                    f"monitor {cls.__name__} state {info.name} declares "
                    "deferred events; monitors cannot defer (use 'ignored' "
                    "or handle the event in every state)"
                )

    # ------------------------------------------------------------------
    # Monitors are passive: the machine primitives that interact with the
    # schedule are forbidden, which is what guarantees that attaching a
    # monitor never perturbs the strategy's decision sequence.
    # ------------------------------------------------------------------
    def send(self, target: MachineId, event: Event) -> None:
        raise PSharpError(
            f"monitor {type(self).__name__} attempted to send an event; "
            "monitors are passive observers"
        )

    def create_machine(self, machine_cls: type, payload: Any = None) -> MachineId:
        raise PSharpError(
            f"monitor {type(self).__name__} attempted to create a machine; "
            "monitors are passive observers"
        )

    def nondet(self) -> bool:
        raise PSharpError(
            f"monitor {type(self).__name__} attempted a nondeterministic "
            "choice; monitors must be deterministic"
        )

    def nondet_int(self, bound: int) -> int:
        raise PSharpError(
            f"monitor {type(self).__name__} attempted a nondeterministic "
            "choice; monitors must be deterministic"
        )

    # ------------------------------------------------------------------
    # Invocation machinery (driven by the runtimes)
    # ------------------------------------------------------------------
    @property
    def is_hot(self) -> bool:
        """Whether the monitor currently sits in a hot state."""
        state = self._current_state
        return state is not None and state.temperature == HOT

    def _boot(self) -> None:
        """Enter the initial state and run any raised-event cascade."""
        self._start()
        while self._raised is not None and self._step():
            pass

    def _observe(self, event: Event) -> None:
        """Process one observed event synchronously.

        Ignored events are dropped; anything else is handled like a raised
        event — a monitor has no inbox — through the machines' own
        :meth:`_step` (action, transition, or an
        :class:`UnhandledEventError`), halted or not.  A failed assertion
        and an unhandled event are the specification's own error class:
        they leave as a :class:`MonitorError` (bug kind ``"monitor"``)
        naming this monitor and its state, under every runtime, not as
        a fault of the machine whose send was mirrored."""
        state = self._current_state
        code = (state.dispatch.get(type(event)) or state.disposition(type(event)))[0]
        if code == DISP_IGNORE or code == DISP_DEFER:
            return
        self._raised = event
        try:
            while self._step() and self._raised is not None:
                pass  # the handler raised another event: handle it too
        except AssertionFailure as exc:
            message = str(exc)
            prefix = f"{self!r}: "
            if message.startswith(prefix):  # assert_that's own naming
                message = message[len(prefix):]
            raise MonitorError(self, message) from exc
        except UnhandledEventError as exc:
            raise MonitorError(self, str(exc)) from exc


def has_hot_states(monitor_cls: Type[Monitor]) -> bool:
    """Whether ``monitor_cls`` declares any hot state (i.e. is a liveness
    monitor).  Runtimes use this to decide when temperature tracking — and
    the suppression of the legacy depth-bound heuristic — applies."""
    return any(
        info.temperature == HOT for info in monitor_cls._state_infos.values()
    )
