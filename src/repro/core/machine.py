"""The ``Machine`` and ``State`` abstractions.

A P# program is composed of state machines that communicate by sending and
receiving events (Section 1).  Machines are classes inheriting from the
abstract ``Machine``; their states are *nested classes* inheriting from
``State`` — the paper notes that P# "enforces states to be nested classes
of the machine they belong to; this ensures they cannot be accessed
externally" (Section 3).

A state declares, as class attributes:

``entry``
    name of the machine method run on entry to the state (the ``OnEntry``
    of the paper); it receives the payload of the event that caused the
    transition.
``exit``
    name of the machine method run when leaving the state.
``transitions``
    mapping from event classes to target state names (the paper's
    "State Transitions" boxes).
``actions``
    mapping from event classes to machine method names (the paper's
    "Action Bindings"); the machine stays in the same state.
``deferred`` / ``ignored``
    event classes that are skipped in the queue / silently dropped.
``initial``
    marks the machine's initial state (exactly one per machine).

Actions and entry/exit handlers are arbitrary *sequential* Python methods:
they must not spawn threads or use synchronization — concurrency is only
expressed by creating machines and sending events, mirroring the paper's
restriction that "actions ... must be sequential".
"""

from __future__ import annotations

import inspect
import types
from collections import deque
from operator import attrgetter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Optional, Tuple, Type

from ..errors import (
    AssertionFailure,
    MachineDeclarationError,
    UnhandledEventError,
)
from .events import Event, Halt, MachineId


class State:
    """Base class for machine states.  See module docstring."""

    entry: Optional[str] = None
    exit: Optional[str] = None
    transitions: Dict[Type[Event], str] = {}
    actions: Dict[Type[Event], str] = {}
    deferred: Tuple[Type[Event], ...] = ()
    ignored: Tuple[Type[Event], ...] = ()
    initial: bool = False
    # Liveness temperature of the state: "hot" / "cold" / None.  Only
    # meaningful on specification monitors (repro.testing.monitors); set
    # with the ``@hot`` / ``@cold`` decorators or declared directly.
    temperature: Optional[str] = None


# Event dispositions, precomputed per (state, event class).  Ordered so
# that "deliverable" is a single comparison: codes <= DISP_HALT deliver.
DISP_ACTION = 0
DISP_TRANSITION = 1
DISP_HALT = 2
DISP_DEFER = 3
DISP_IGNORE = 4
DISP_UNHANDLED = 5


@dataclass(slots=True)
class StateInfo:
    """Preprocessed description of one state of a machine.

    The runtime "preprocesses each registered machine to build a
    machine-specific map from states to state transitions and action
    bindings" (Section 6.1); this is that map's entry.

    Beyond the declarative maps, each StateInfo carries the *compiled*
    dispatch for its machine class: entry/exit/action names resolved to
    functions at class-preprocess time, transition targets resolved to
    their ``StateInfo`` objects, and a memoized ``event class ->
    (disposition, payload, coroutine)`` table, so the per-event hot path
    does zero ``getattr`` and a single dict probe.  Every runtime steps
    through this one table; the coroutine slots are filled in place by
    :func:`repro.core.continuations.compile_inline_machine` and read only
    on a machine the inline carrier marked suspendable.
    """

    name: str
    entry: Optional[str]
    exit: Optional[str]
    transitions: Dict[Type[Event], str]
    actions: Dict[Type[Event], str]
    deferred: frozenset
    ignored: frozenset
    initial: bool = False
    temperature: Optional[str] = None
    # Compiled by _link_states (after validation):
    owner: Optional[type] = None
    entry_fn: Optional[Callable] = None
    exit_fn: Optional[Callable] = None
    # The coroutine variants of entry_fn / exit_fn, when the inline
    # compiler reshaped them (they reach a scheduling primitive); else None.
    entry_co: Optional[Callable] = None
    exit_co: Optional[Callable] = None
    # event class -> (DISP_* code, payload, coroutine); payload is the
    # bound-to-class action function for DISP_ACTION, the target StateInfo
    # for DISP_TRANSITION, None otherwise; coroutine is the action's
    # compiled variant, or None.
    dispatch: Dict[type, tuple] = field(default_factory=dict)

    def disposition(self, event_cls: type) -> tuple:
        """Memoized disposition of ``event_cls`` in this state.

        Precedence mirrors the historical ``_deliverable_index`` checks:
        Halt always delivers, then ignored, deferred, and handlers.
        """
        disp = self.dispatch.get(event_cls)
        if disp is None:
            disp = self._compute_disposition(event_cls)
            self.dispatch[event_cls] = disp
        return disp

    def _compute_disposition(self, event_cls: type) -> tuple:
        if issubclass(event_cls, Halt):
            return (DISP_HALT, None, None)
        if event_cls in self.ignored:
            return (DISP_IGNORE, None, None)
        if event_cls in self.deferred:
            return (DISP_DEFER, None, None)
        # Declared handlers are pre-seeded by _link_states; these probes
        # only matter for StateInfos inspected outside a linked machine.
        if event_cls in self.actions and self.owner is not None:
            return (
                DISP_ACTION,
                _resolve_handler(self.owner, self.actions[event_cls]),
                None,
            )
        return (DISP_UNHANDLED, None, None)


def _collect_states(cls: type) -> Dict[str, StateInfo]:
    """Walk the MRO collecting nested ``State`` subclasses.

    Supports inheritance between machines (the ``BaseService`` /
    ``UserService`` pattern of Figure 1): a subclass inherits all states of
    its base machine and may override individual states by redeclaring a
    nested class with the same name.
    """
    states: Dict[str, StateInfo] = {}
    for klass in reversed(cls.__mro__):
        for name, attr in vars(klass).items():
            if isinstance(attr, type) and issubclass(attr, State) and attr is not State:
                info = StateInfo(
                    name=name,
                    entry=attr.entry,
                    exit=attr.exit,
                    transitions=dict(attr.transitions),
                    actions=dict(attr.actions),
                    deferred=frozenset(attr.deferred),
                    ignored=frozenset(attr.ignored),
                    initial=bool(attr.initial),
                    temperature=attr.temperature,
                )
                states[name] = info  # later (more derived) declarations win
    return states


def _validate_machine(cls: type, states: Dict[str, StateInfo]) -> str:
    """Check the paper's well-formedness conditions; return initial state name."""
    if not states:
        raise MachineDeclarationError(f"machine {cls.__name__} declares no states")

    initials = [s.name for s in states.values() if s.initial]
    if len(initials) != 1:
        raise MachineDeclarationError(
            f"machine {cls.__name__} must have exactly one initial state, "
            f"found {initials or 'none'}"
        )

    for info in states.values():
        # Paper error class (i): "an event can be handled in more than one
        # way in the same state".
        overlap = set(info.transitions) & set(info.actions)
        if overlap:
            raise MachineDeclarationError(
                f"state {info.name} of machine {cls.__name__} handles "
                f"{sorted(e.__name__ for e in overlap)} both as a transition "
                "and as an action"
            )
        for evt, target in info.transitions.items():
            if target not in states:
                raise MachineDeclarationError(
                    f"state {info.name} of {cls.__name__} transitions to "
                    f"unknown state {target!r} on {evt.__name__}"
                )
        for evt, action in info.actions.items():
            if not callable(getattr(cls, action, None)):
                raise MachineDeclarationError(
                    f"state {info.name} of {cls.__name__} binds {evt.__name__} "
                    f"to missing action {action!r}"
                )
        for handler in (info.entry, info.exit):
            if handler is not None and not callable(getattr(cls, handler, None)):
                raise MachineDeclarationError(
                    f"state {info.name} of {cls.__name__} names missing "
                    f"method {handler!r}"
                )
    return initials[0]


def _resolve_handler(cls: type, name: str) -> Callable:
    """Resolve handler ``name`` to a callable invoked as ``fn(machine)``.

    Plain methods (the overwhelmingly common case) resolve to the raw
    function, so the hot path calls it directly with the machine as
    ``self``.  Anything else — staticmethods, classmethods, stored
    callables — keeps the historical ``getattr(self, name)()`` semantics
    through a late-binding shim.
    """
    raw = inspect.getattr_static(cls, name, None)
    if isinstance(raw, types.FunctionType):
        return raw

    def shim(machine: "Machine") -> Any:
        return getattr(machine, name)()

    return shim


def _link_states(cls: type, states: Dict[str, StateInfo]) -> None:
    """Compile the per-state dispatch for ``cls``.

    Resolves handler *names* to callables once per class (instead of a
    ``getattr`` per event), links transition targets to their
    ``StateInfo`` objects, and seeds the memoized disposition table.
    Precedence in the seeded table matches the historical per-event
    checks: Halt beats everything, ignored beats deferred beats handlers.
    """
    for info in states.values():
        info.owner = cls
        info.entry_fn = _resolve_handler(cls, info.entry) if info.entry else None
        info.exit_fn = _resolve_handler(cls, info.exit) if info.exit else None
        dispatch: Dict[type, tuple] = {}
        for evt, action in info.actions.items():
            dispatch[evt] = (DISP_ACTION, _resolve_handler(cls, action), None)
        for evt, target in info.transitions.items():
            dispatch[evt] = (DISP_TRANSITION, states[target], None)
        for evt in info.deferred:
            dispatch[evt] = (DISP_DEFER, None, None)
        for evt in info.ignored:
            dispatch[evt] = (DISP_IGNORE, None, None)
        dispatch[Halt] = (DISP_HALT, None, None)
        info.dispatch = dispatch


class Machine:
    """Abstract base class of all P# machines.

    Subclasses declare nested ``State`` classes and implement actions as
    plain methods.  Instances are always created through a runtime
    (``Runtime.create_machine`` or ``Machine.create_machine`` from inside
    an action); user code holds only ``MachineId`` handles, never direct
    references to other machine instances.
    """

    # Populated by __init_subclass__:
    _state_infos: Dict[str, StateInfo] = {}
    _initial_state: str = ""

    # When non-None, every field read/write on any machine goes through
    # this callback: (machine, field_name, is_write) -> None.  Used by the
    # CHESS-style baseline to schedule at memory-access granularity.
    _field_access_hook: Optional[Callable[["Machine", str, bool], None]] = None

    # Fields that survive a fault-injected crash-restart (see
    # repro.testing.faults): the machine's model of durable storage.
    # Everything else in __dict__ is volatile memory, wiped when the
    # tester crash-restarts the machine.
    persistent_fields: Tuple[str, ...] = ()

    # The runtime-internal attributes live in __slots__ for fast access;
    # "__dict__" stays in the layout so user machine subclasses can keep
    # assigning arbitrary fields in their actions.
    __slots__ = (
        "_runtime",
        "_id",
        "_inbox",
        "_current_state",
        "_current_event",
        "_raised",
        "_halted",
        "_inbox_dirty",
        "_idle_deliverable",
        "_boot_event",
        "_suspendable",
        "__dict__",
        "__weakref__",
    )

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        states = _collect_states(cls)
        if states:  # allow abstract intermediates with no states yet
            cls._initial_state = _validate_machine(cls, states)
            _link_states(cls, states)
        cls._state_infos = states

    def __init__(self, runtime: Any, mid: MachineId) -> None:
        object.__setattr__(self, "_psharp_internal", True)
        self._runtime = runtime
        self._id = mid
        self._inbox: deque = deque()
        self._current_state: Optional[StateInfo] = None
        self._current_event: Optional[Event] = None
        self._raised: Optional[Event] = None
        self._halted = False
        # Idle-deliverability memo for the bug-finding schedulers: while a
        # machine sits idle its deliverable-status can only change when an
        # event is enqueued to it, so `_schedulable` caches the last
        # inbox-scan verdict in `_idle_deliverable` and only rescans when
        # `_inbox_dirty` is set (at idle-entry and on every enqueue).
        self._inbox_dirty = True
        self._idle_deliverable = False
        # The creation event (set by RuntimeBase._instantiate): a
        # crash-restart re-enters the initial state with this event, so a
        # rebooted machine sees its original creation payload.
        self._boot_event: Optional[Event] = None
        # Set by the bug-finding runtime's seat alone (testing.runtime
        # ._Seat): the machine runs its handlers' compiled coroutines, so
        # _start / _step may hand one back.  Everywhere else they run plain.
        self._suspendable = False
        del self._psharp_internal

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    #: This machine's :class:`MachineId`.  Read on nearly every send
    #: (``self.id`` in a payload), so the getter is C-level: no frame.
    id = property(attrgetter("_id"))

    @property
    def payload(self) -> Any:
        """Payload of the event currently being handled (paper: ``this.Payload``)."""
        return None if self._current_event is None else self._current_event.payload

    @property
    def current_state(self) -> Optional[str]:
        return None if self._current_state is None else self._current_state.name

    @property
    def is_halted(self) -> bool:
        return self._halted

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self._id.value}"

    # ------------------------------------------------------------------
    # Backend resolution
    # ------------------------------------------------------------------
    @classmethod
    def inline_compatible(cls) -> bool:
        """Whether this machine class compiles into coroutines for the
        tester's single-thread carrier (a class that does not runs on
        ``runtime_factory=ThreadedRuntime``).

        The verdict is the coroutine compiler's own
        (:func:`repro.core.continuations.compile_inline_machine`) and is
        memoized per class either way — a successful compile is reused by
        the carrier itself, and a failure is cached in
        ``_inline_incompatible`` (the compiler's message) so asking again
        costs one dict probe.  The fleet calls it to compile a campaign's
        main class before forking its workers.
        """
        if cls.__dict__.get("_inline_ready"):
            return True
        if "_inline_incompatible" in cls.__dict__:
            return False
        from .continuations import InlineCompileError, compile_inline_machine

        try:
            compile_inline_machine(cls)
        except InlineCompileError as exc:
            cls._inline_incompatible = str(exc)
            return False
        return True

    # ------------------------------------------------------------------
    # The P# primitives available inside actions
    # ------------------------------------------------------------------
    def send(self, target: MachineId, event: Event) -> None:
        """Send ``event`` to ``target``.

        In bug-finding mode this is a scheduling point: "the send and
        create-machine methods call the runtime method Schedule, which
        blocks the current thread and releases another thread" (Sec. 6.2).
        """
        self._runtime.send(target, event, sender=self)

    def create_machine(
        self, machine_cls: Type["Machine"], payload: Any = None
    ) -> MachineId:
        """Create a new machine instance; also a scheduling point."""
        return self._runtime.create_machine(machine_cls, payload, creator=self)

    def raise_event(self, event: Event) -> None:
        """Raise an event to be handled by this machine before any queued
        event; processing happens after the current action returns."""
        if self._raised is not None:
            raise AssertionFailure(
                f"{self} raised {event!r} while {self._raised!r} is pending"
            )
        self._raised = event

    def assert_that(self, condition: Any, message: str = "assertion failed") -> None:
        """P#'s ``assert``: a falsified condition is a bug, reported with a
        replayable trace in bug-finding mode."""
        if not condition:
            raise AssertionFailure(f"{self}: {message}")

    def nondet(self) -> bool:
        """A controlled nondeterministic boolean choice.

        Under the DFS scheduler both branches are explored systematically;
        under the random scheduler the choice is random (Section 6.2
        explains why random machines' choices need not be controlled).
        """
        return self._runtime.nondet(self)

    def nondet_int(self, bound: int) -> int:
        """Controlled nondeterministic integer in ``range(bound)`` (the
        ``GetNextChoice`` of Figure 1)."""
        return self._runtime.nondet_int(self, bound)

    def monitor(self, monitor_cls: type, event: Event) -> None:
        """Invoke a registered specification monitor with ``event`` (the
        ``Monitor<T>(e)`` of P#).  Monitors execute synchronously in the
        invoking machine's step and never consume scheduling decisions; an
        invocation of a monitor class that is not registered with the
        runtime is a no-op, so programs run unchanged without their
        specifications attached."""
        self._runtime.invoke_monitor(monitor_cls, event, source=self)

    def halt(self) -> None:
        """Halt this machine at the end of the current action."""
        self.raise_event(Halt())

    def log(self, message: str) -> None:
        self._runtime.log(f"{self}: {message}")

    # ------------------------------------------------------------------
    # Event-handling machinery (driven by the runtimes)
    # ------------------------------------------------------------------
    def _enqueue(self, event: Event) -> None:
        if not self._halted:
            self._inbox.append(event)

    def _deliverable_index(self) -> Optional[int]:
        """Index of the first queued event the current state is willing to
        handle, skipping deferred events and dropping ignored ones.

        This implements the paper's transition function ``Tm``, which
        "finds the first event in E that m is willing to handle in state q"
        (Section 4).  Returns None when no queued event is deliverable.

        Raises ``UnhandledEventError`` (paper error class (ii)) when the
        first non-deferred event is neither handled nor ignored.
        """
        state = self._current_state
        assert state is not None
        dispatch = state.dispatch
        dispatch_get = dispatch.get
        inbox = self._inbox
        i = 0
        while i < len(inbox):
            event = inbox[i]
            # Probe the memoized table directly; disposition() fills it
            # on a miss (and this is the loop that makes it hot).
            entry = dispatch_get(type(event))
            if entry is None:
                entry = state.disposition(type(event))
            code = entry[0]
            if code <= DISP_HALT:  # action, transition or halt: deliverable
                return i
            if code == DISP_DEFER:
                i += 1
                continue
            if code == DISP_IGNORE:
                del inbox[i]
                continue
            raise UnhandledEventError(self, state.name, event)
        return None

    def _has_deliverable(self) -> bool:
        if self._halted:
            return False
        if self._current_state is None:
            return True  # not started yet: entering the initial state is work
        if self._raised is not None:
            return True
        return self._deliverable_index() is not None

    def _start(self):
        """Enter the initial state (runs its entry handler): what
        :meth:`_enter` returns."""
        return self._enter(
            self._state_infos[self._initial_state], self._current_event
        )

    def _step(self):
        """Handle one event: the raised one, else the first deliverable
        one in the inbox (the dequeue hook then sees it).

        ``False`` when there was nothing to handle or the machine has
        halted, ``True`` when the event was handled.  On a machine the
        inline carrier marked suspendable, a step that reaches a handler
        :mod:`repro.core.continuations` reshaped hands back that handler's
        coroutine instead (or :meth:`_enter_co`), for the carrier to drive.

        The raised event is taken before the halted test: a halted machine
        never has one, but a halted monitor keeps observing, and
        :meth:`~repro.testing.monitors.Monitor._observe` delivers through
        that slot.
        """
        state = self._current_state
        event = self._raised
        if event is not None:
            self._raised = None
            entry = state.dispatch.get(type(event)) or state.disposition(type(event))
        else:
            if self._halted:
                return False
            inbox = self._inbox
            if not inbox:
                return False
            # The head of the inbox nearly always is the event
            # _deliverable_index() would name: probe its disposition
            # before paying for the scan.
            event = inbox[0]
            entry = state.dispatch.get(type(event))
            if entry is not None and entry[0] <= DISP_HALT:
                inbox.popleft()
            else:
                index = self._deliverable_index()
                if index is None:
                    return False
                event = inbox[index]
                del inbox[index]
                entry = state.dispatch[type(event)]  # the scan filled it
            hook = self._runtime._hook_dequeued
            if hook is not None:
                hook(self, event)
        code, payload, co = entry
        if code == DISP_ACTION:
            self._current_event = event
            if co is not None and self._suspendable:
                return co(self)
            payload(self)
            return True
        if code == DISP_TRANSITION:
            return self._enter(payload, event)
        if code == DISP_HALT:
            self._do_halt()
            return True
        raise UnhandledEventError(self, state.name, event)

    def _enter(self, info: StateInfo, event: Optional[Event]):
        """Change state to ``info`` on ``event``: the old state's exit
        handler, the state hook, the new state's entry handler.  ``True``,
        or :meth:`_enter_co` on a suspendable machine when the exit or the
        entry handler was reshaped."""
        old = self._current_state
        if (
            info.entry_co is not None or (old is not None and old.exit_co is not None)
        ) and self._suspendable:
            return self._enter_co(info, event)
        if old is not None and old.exit_fn is not None:
            old.exit_fn(self)
        self._current_state = info
        self._current_event = event
        hook = self._runtime._hook_state
        if hook is not None:
            hook(self, old, event)
        if info.entry_fn is not None:
            info.entry_fn(self)
        return True

    def _enter_co(self, info: StateInfo, event: Optional[Event]):
        """:meth:`_enter` as a coroutine, delegating to the reshaped exit
        and entry handlers: it yields wherever one of their scheduling
        points picked another machine, and the choice bubbles up the
        ``yield from`` chain to the trampoline."""
        old = self._current_state
        if old is not None and old.exit_fn is not None:
            if old.exit_co is not None:
                yield from old.exit_co(self)
            else:
                old.exit_fn(self)
        self._current_state = info
        self._current_event = event
        hook = self._runtime._hook_state
        if hook is not None:
            hook(self, old, event)
        if info.entry_fn is not None:
            if info.entry_co is not None:
                yield from info.entry_co(self)
            else:
                info.entry_fn(self)

    def _do_halt(self) -> None:
        self._halted = True
        self._inbox.clear()
        self._raised = None
        self._runtime.on_machine_halted(self)

    # ------------------------------------------------------------------
    # Optional field-access instrumentation (CHESS baseline, Section 7.2.2)
    # ------------------------------------------------------------------
    # ``__setattr__`` is NOT defined on the class by default: machines
    # write fields constantly (it is the single most frequent operation
    # in a controlled execution), and a Python-level interception hook
    # taxes every one of those writes even when no instrumentation is
    # active.  The CHESS baseline installs ``_instrumented_setattr`` as
    # ``Machine.__setattr__`` for the duration of its executions via
    # :func:`install_field_access_hook`.

    def _instrumented_setattr(self, name: str, value: Any) -> None:
        hook = Machine._field_access_hook
        if (
            hook is not None
            and not name.startswith("_")
            and "_psharp_internal" not in self.__dict__
        ):
            hook(self, name, True)
        object.__setattr__(self, name, value)

    def read(self, name: str) -> Any:
        """Instrumented field read.  Plain attribute reads are not hooked
        (hooking ``__getattribute__`` would tax production mode); the CHESS
        baseline additionally schedules at dequeue/enqueue operations so
        the visible-operation density is still far above the P# runtime's.
        """
        hook = Machine._field_access_hook
        if hook is not None and not name.startswith("_"):
            hook(self, name, False)
        return getattr(self, name)


def install_field_access_hook(
    hook: Optional[Callable[[Machine, str, bool], None]]
) -> None:
    """Install (or, with ``None``, remove) the global field-access hook.

    Installing also swaps the instrumented ``__setattr__`` into the
    ``Machine`` class; removing deletes it so ordinary field writes go
    straight to ``object.__setattr__`` with zero interception cost.
    """
    Machine._field_access_hook = hook
    if hook is not None:
        Machine.__setattr__ = Machine._instrumented_setattr  # type: ignore[method-assign]
    elif "__setattr__" in Machine.__dict__:
        del Machine.__setattr__


def machine_statistics(machine_cls: Type[Machine]) -> Dict[str, int]:
    """Static statistics of one machine class, matching Table 1's columns:
    number of state transitions (#ST) and action bindings (#AB)."""
    transitions = 0
    bindings = 0
    for info in machine_cls._state_infos.values():
        transitions += len(info.transitions)
        bindings += len(info.actions)
    return {
        "states": len(machine_cls._state_infos),
        "transitions": transitions,
        "action_bindings": bindings,
    }


def program_statistics(machine_classes: Iterable[Type[Machine]]) -> Dict[str, int]:
    """Aggregate Table 1 statistics (#M, #ST, #AB) for a set of machines."""
    totals = {"machines": 0, "states": 0, "transitions": 0, "action_bindings": 0}
    for cls in machine_classes:
        stats = machine_statistics(cls)
        totals["machines"] += 1
        totals["states"] += stats["states"]
        totals["transitions"] += stats["transitions"]
        totals["action_bindings"] += stats["action_bindings"]
    return totals
