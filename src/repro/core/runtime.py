"""Runtimes for executing P# programs.

``RuntimeBase``
    Machine registry, id allocation and error plumbing shared by the
    production runtime and the bug-finding runtime
    (:mod:`repro.testing.runtime`).

``Runtime``
    The production runtime (Section 6.1): each machine's event handler
    runs on its own thread, "concurrently with the runtime and other
    handlers", dequeuing from a thread-safe blocking queue.
"""

from __future__ import annotations

import random
import threading
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from ..errors import ActionError, PSharpError
from .events import Event, MachineId
from .machine import Machine


class _Observers(dict):
    """Event class -> registration indices of the monitors observing it,
    filled the first time an event class is looked up: the monitor
    classes whose ``attr`` tuple (``observes`` / ``observes_dequeue``)
    lists it or a base of it.  Built from a runtime's monitor classes —
    once per campaign by the bug-finding runtime, at every registration by
    the production one — so a lookup on the hot path is one C call."""

    def __init__(self, monitors: Sequence[type], attr: str) -> None:
        self._listed = [tuple(getattr(cls, attr)) for cls in monitors]

    def __missing__(self, event_cls: type) -> Tuple[int, ...]:
        observers = self[event_cls] = tuple(
            index
            for index, listed in enumerate(self._listed)
            if issubclass(event_cls, listed)
        )
        return observers


class RuntimeBase:
    """State and behaviour shared by all runtimes."""

    # The hooks machines call when they are not None, so a runtime
    # without listeners pays one attribute test per state change / per
    # dequeue and a runtime with one pays a single call:
    # ``_hook_state(machine, old_info, event)`` after a machine (or
    # monitor) entered a state — ``old_info`` is the previous
    # :class:`StateInfo` (None on the initial entry) and ``event`` the
    # trigger; the bug-finding runtime points it at its CoverageMap —
    # and ``_hook_dequeued(machine, event)``, which is
    # :meth:`on_event_dequeued` for the runtimes that override it.
    _hook_state: Optional[Callable[[Machine, Any, Optional[Event]], None]] = None

    def __init__(self) -> None:
        self._machines: Dict[MachineId, Machine] = {}
        self._next_id = 0
        self._error: Optional[BaseException] = None
        self._log_sink: Optional[Callable[[str], None]] = None
        # Registered specification monitor instances (repro.testing
        # .monitors); empty for runtimes without monitor support.
        self._monitors: List[Any] = []
        self._hook_dequeued = self._overridden_dequeue_hook(RuntimeBase)

    def _overridden_dequeue_hook(self, base: type) -> Optional[Callable]:
        """:meth:`on_event_dequeued` when a subclass of ``base`` overrides
        it (CHESS), else None."""
        if type(self).on_event_dequeued is base.on_event_dequeued:
            return None
        return self.on_event_dequeued

    # -- registry -------------------------------------------------------
    def _allocate_id(self, machine_cls: Type[Machine]) -> MachineId:
        mid = MachineId(self._next_id, machine_cls.__name__)
        self._next_id += 1
        return mid

    def _instantiate(
        self, machine_cls: Type[Machine], payload: Any
    ) -> Machine:
        mid = self._allocate_id(machine_cls)
        machine = machine_cls(self, mid)
        # The payload passed at creation is delivered to the initial
        # state's entry handler, like BaseService.Init in Figure 1.
        machine._current_event = Event(payload)
        # Kept for the tester's crash-restart faults: a rebooted machine
        # re-enters its initial state with the original creation payload.
        machine._boot_event = machine._current_event
        self._machines[mid] = machine
        return machine

    def machine(self, mid: MachineId) -> Machine:
        return self._machines[mid]

    @property
    def machines(self) -> List[Machine]:
        return list(self._machines.values())

    # -- hooks overridden by concrete runtimes ---------------------------
    def create_machine(
        self,
        machine_cls: Type[Machine],
        payload: Any = None,
        creator: Optional[Machine] = None,
    ) -> MachineId:
        raise NotImplementedError

    def send(
        self, target: MachineId, event: Event, sender: Optional[Machine] = None
    ) -> None:
        raise NotImplementedError

    def nondet(self, machine: Machine) -> bool:
        raise NotImplementedError

    def nondet_int(self, machine: Machine, bound: int) -> int:
        raise NotImplementedError

    def on_machine_halted(self, machine: Machine) -> None:
        pass

    def invoke_monitor(
        self, monitor_cls: type, event: Event, source: Optional[Machine] = None
    ) -> None:
        """Deliver ``event`` to the registered instance of ``monitor_cls``.

        The base implementation is a no-op: invoking a monitor that is not
        registered (or on a runtime without monitor support) silently does
        nothing, so instrumented programs run unchanged without their
        specifications attached."""

    def on_event_dequeued(self, machine: Machine, event: Event) -> None:
        """Hook invoked when a machine dequeues an event (used by the
        CHESS baseline to add happens-before edges and visible ops)."""

    def log(self, message: str) -> None:
        if self._log_sink is not None:
            self._log_sink(message)


class Runtime(RuntimeBase):
    """Production runtime: one handler thread per machine.

    Nondeterministic choices are honestly random here; in bug-finding mode
    they are controlled by the scheduling strategy instead.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        super().__init__()
        # Re-entrant: monitors run under this lock, and a monitor that
        # halts re-enters it to mirror its own EMachineHalted.
        self._lock = threading.RLock()
        self._cv = threading.Condition(self._lock)
        self._threads: List[threading.Thread] = []
        self._stopping = False
        self._rng = random.Random(seed)
        self._idle = 0
        # Event class -> indices of the monitors observing it at send /
        # dequeue time; rebuilt by register_monitor.
        self._observing_send = _Observers((), "observes")
        self._observing_dequeue = _Observers((), "observes_dequeue")
        # This class overrides on_event_dequeued for monitor mirroring,
        # but the hook only needs to run once a dequeue-observing monitor
        # is registered — keep the no-monitor hot path unhooked while
        # preserving the base contract for further subclass overrides.
        self._hook_dequeued = self._overridden_dequeue_hook(Runtime)

    # ------------------------------------------------------------------
    def run(self, main_cls: Type[Machine], payload: Any = None) -> "Runtime":
        """Create and start the main machine (the paper's ``Main`` attribute
        machine); returns self for chaining with :meth:`join`."""
        self.create_machine(main_cls, payload)
        return self

    def create_machine(
        self,
        machine_cls: Type[Machine],
        payload: Any = None,
        creator: Optional[Machine] = None,
    ) -> MachineId:
        with self._lock:
            if self._stopping:
                raise PSharpError("runtime is stopping")
            machine = self._instantiate(machine_cls, payload)
        thread = threading.Thread(
            target=self._machine_loop, args=(machine,), daemon=True,
            name=f"psharp-{machine.id}",
        )
        self._threads.append(thread)
        thread.start()
        return machine.id

    def send(
        self, target: MachineId, event: Event, sender: Optional[Machine] = None
    ) -> None:
        with self._cv:
            if self._monitors:
                self._deliver_to_monitors(self._observing_send[type(event)], event)
            machine = self._machines.get(target)
            if machine is None or machine.is_halted:
                return  # events to halted machines are dropped
            machine._enqueue(event)
            self._cv.notify_all()

    # -- specification monitors (repro.testing.monitors) -----------------
    def register_monitor(self, monitor_cls: type) -> None:
        """Attach a specification monitor; its handlers run synchronously
        under the runtime lock, so observations are serialized even though
        machine handlers run on concurrent threads.  All three mirroring
        hooks work here: ``observes`` (send), ``observes_dequeue``
        (delivery) and ``EMachineHalted`` (halt)."""
        with self._cv:
            index = len(self._monitors)
            instance = monitor_cls(self, MachineId(-(index + 1), monitor_cls.__name__))
            self._monitors.append(instance)
            classes = [type(monitor) for monitor in self._monitors]
            self._observing_send = _Observers(classes, "observes")
            self._observing_dequeue = _Observers(classes, "observes_dequeue")
            if instance.observes_dequeue:
                self._hook_dequeued = self.on_event_dequeued
            instance._boot()

    def invoke_monitor(
        self, monitor_cls: type, event: Event, source: Optional[Machine] = None
    ) -> None:
        with self._cv:
            for instance in self._monitors:
                if type(instance) is monitor_cls:
                    instance._observe(event)
                    return

    def on_event_dequeued(self, machine: Machine, event: Event) -> None:
        with self._cv:
            self._deliver_to_monitors(self._observing_dequeue[type(event)], event)

    def on_machine_halted(self, machine: Machine) -> None:
        if not self._monitors:
            return
        from ..testing.monitors import EMachineHalted

        with self._cv:
            self._deliver_to_monitors(
                self._observing_send[EMachineHalted], EMachineHalted(machine.id)
            )

    def _deliver_to_monitors(self, observers: Tuple[int, ...], event: Event) -> None:
        """Run ``event`` through each observing monitor (named by
        registration index); the caller holds the runtime lock."""
        monitors = self._monitors
        for index in observers:
            monitors[index]._observe(event)

    def nondet(self, machine: Machine) -> bool:
        return bool(self._rng.getrandbits(1))

    def nondet_int(self, machine: Machine, bound: int) -> int:
        return self._rng.randrange(bound)

    # ------------------------------------------------------------------
    def _machine_loop(self, machine: Machine) -> None:
        try:
            machine._start()
            while not self._stopping and not machine.is_halted:
                stepped = machine._step()
                if stepped:
                    continue
                with self._cv:
                    self._idle += 1
                    self._cv.notify_all()
                    try:
                        self._cv.wait_for(
                            lambda: self._stopping
                            or machine.is_halted
                            or machine._has_deliverable(),
                            timeout=0.5,
                        )
                    finally:
                        self._idle -= 1
            with self._cv:
                # A halt can be what makes the program quiescent: wake
                # wait_quiescence, which nothing else would until its
                # timeout.
                self._cv.notify_all()
        except PSharpError as exc:
            self._report_error(exc)
        except Exception as exc:  # noqa: BLE001 - error class (iii)
            self._report_error(
                ActionError(machine, machine.current_state or "?", exc)
            )

    def _report_error(self, exc: BaseException) -> None:
        with self._cv:
            if self._error is None:
                self._error = exc
            self._stopping = True
            self._cv.notify_all()

    # ------------------------------------------------------------------
    def wait_quiescence(self, timeout: float = 10.0) -> bool:
        """Block until no machine has a deliverable event (best effort)."""
        def quiescent() -> bool:
            return self._error is not None or all(
                m.is_halted or not m._has_deliverable()
                for m in self._machines.values()
            ) and self._idle >= sum(
                1 for m in self._machines.values() if not m.is_halted
            )

        with self._cv:
            result = self._cv.wait_for(quiescent, timeout=timeout)
        return bool(result)

    def stop(self) -> None:
        with self._cv:
            self._stopping = True
            self._cv.notify_all()
        for thread in self._threads:
            thread.join(timeout=2.0)

    def join(self, timeout: float = 10.0) -> None:
        """Wait for quiescence, stop, and re-raise any detected error."""
        self.wait_quiescence(timeout)
        self.stop()
        if self._error is not None:
            raise self._error
