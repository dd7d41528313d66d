"""The bug-finding runtime: serialized, schedule-controlled execution.

Section 6.2: "we designed a bug-finding mode for the runtime, in which
execution is serialized and the schedule is controlled.  In this mode, the
runtime repeatedly executes a program from start to completion, each time
exploring a (potentially) different schedule. ... In bug-finding mode, the
send and create-machine methods call the runtime method Schedule, which
blocks the current thread and releases another thread."

Primitives are calls; a carrier is the control transfer.  Scheduling
points occur exactly at ``send`` and ``create_machine`` (receives need no
scheduling point — the simple partial-order reduction inherited from
P [6]); a forced hand-off additionally happens when a machine goes idle
or finishes.  Each piece of a scheduling point is written once:

* :meth:`BugFindingRuntime._point` — the scheduling point, whole, in one
  frame: what the send that caused it does (monitor mirroring, coverage,
  footprint, fault consult, enqueue, idle wake, visible-operation hook),
  then the paper's Schedule — count the step, consult the state cache,
  read the enabled set, let the strategy pick, record the pick — answered
  with the machine to switch to, or ``None`` when the running machine
  keeps the turn;
* :meth:`BugFindingRuntime._pick_successor` — the hand-off of a machine
  that gives the turn up (idle or done): termination when nobody is
  enabled, else the same point, entered past the step count;
* :meth:`BugFindingRuntime._machine_body` — one machine's life (start,
  step loop, crash consult, idle / done hand-off) as a generator over its
  control transfers.

The hot path looks machines up by one key, the seat index
(``MachineId.value`` is the position in ``_worker_list``), and every
table it reads — the enabled set's order, the monitor-observer tables —
is keyed or compared by that int; ``MachineId`` objects are for the
program and the strategy API.

A *carrier* only moves control to the machine those decisions name.
Exactly one machine runs at any moment, so runtime state needs no
locking.  This runtime has one: machine handlers are compiled into
resumable generator coroutines (:mod:`repro.core.continuations`) whose
scheduling primitives call ``_point`` (after ``_spawn``, for a create)
and suspend only when the answer is another machine, and a flat
trampoline (:meth:`BugFindingRuntime._run`) resumes the chosen body — no
locks, no hand-offs, no OS thread switch per decision.

A handler shape the compiler refuses (listed in
:mod:`repro.core.continuations`) runs on
:class:`~repro.testing.threads.ThreadedRuntime`, the subclass that
carries each machine's body on its own OS thread and blocks at the
same points (:class:`~repro.chess.ChessRuntime` is one too: it
schedules inside a field-write hook).  Both make the same decisions in
the same order, so for a fixed strategy seed they produce bit-identical
:class:`ScheduleTrace` records — DFS backtracking, replay and PCT
semantics are independent of the carrier.

The runtime is reusable: :meth:`BugFindingRuntime.reset` (called
automatically at the top of :meth:`~BugFindingRuntime.execute`) returns
it to a pristine state, so an engine drives one runtime object for a
whole campaign instead of reconstructing it per iteration.
"""

from __future__ import annotations

import sys
import time
from bisect import bisect_left, insort
from dataclasses import dataclass
from enum import Enum
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type

from ..core.continuations import InlineCompileError, compile_inline_machine, refusal
from ..core.events import Event, MachineId
from ..core.machine import Machine
from ..core.runtime import RuntimeBase, _Observers
from ..errors import (
    ActionError,
    AssertionFailure,
    BugReport,
    ExecutionCanceled,
    LivenessError,
    MonitorError,
    PSharpError,
    UnhandledEventError,
)
from .coverage import CoverageMap
from .faults import (
    FAULT_CRASH,
    FAULT_DELAY,
    FAULT_DROP,
    FAULT_DUPLICATE,
    FAULT_NONE,
    FaultConfig,
)
from .monitors import EMachineHalted, Monitor, has_hot_states
from .reduction import ReductionEngine, state_fingerprint
from .strategies import SchedulingStrategy
from .trace import (
    BOOL_TAG,
    FAULT_TAG,
    INT_TAG,
    LIVENESS_TAG,
    MONITOR_TAG,
    REDUCTION_TAG,
    SCHED_TAG,
    ScheduleTrace,
)

# Sentinel "no hot monitor" deadline: any real step count compares below.
_NO_DEADLINE = float("inf")
#: One past the largest ``nondet_int`` draw a trace can hold (its values
#: are 64-bit): ``bound`` must lie in ``1..NONDET_INT_LIMIT``.
NONDET_INT_LIMIT = 2 ** 63

# Sort key for the incrementally-maintained enabled set: machine ids are
# ordered by their allocation counter, i.e. seat order (ids have no
# __lt__ of their own).
_MID_VALUE = attrgetter("value")


class _WorkerState(Enum):
    NEW = "new"          # bound to a machine, waiting to run the entry handler
    RUNNING = "running"  # inside an action (possibly blocked at a sched point)
    IDLE = "idle"        # waiting for a deliverable event
    DONE = "done"        # halted or finished


_NEW = _WorkerState.NEW
_RUNNING = _WorkerState.RUNNING
_IDLE = _WorkerState.IDLE
_DONE = _WorkerState.DONE


@dataclass(slots=True)
class ExecutionResult:
    """Outcome of a single controlled execution (one schedule)."""

    # "ok" | "bug" | "depth-bound" | "time-bound" | "stopped" | "watchdog"
    # | "pruned" (schedule-space reduction: the execution reached a state
    # the campaign had already explored and was abandoned early)
    status: str
    steps: int
    scheduling_points: int
    trace: Optional[ScheduleTrace]
    # The bug's live form, the one place a bug keeps its raised exception
    # and machine object: a campaign report records its detached copy.
    bug: Optional[BugReport] = None
    # Telemetry: faults injected this execution by outcome, indexed by
    # FAULT_* code, and how many scheduling points actually consulted
    # the strategy (the rest were forced single-choice continuations).
    fault_kinds: Tuple[int, ...] = (0, 0, 0, 0, 0)
    consulted: int = 0
    # True when a replayed execution left its recorded schedule (the
    # trace ran out, or a recorded choice was not enabled) and finished
    # on the replay strategy's first-enabled fallback: whatever it
    # reports is not what the trace recorded.  Always False outside
    # replay.
    diverged: bool = False

    @property
    def buggy(self) -> bool:
        return self.bug is not None

    @property
    def faults_injected(self) -> int:
        return sum(self.fault_kinds)


class _Seat:
    """One machine's seat in an execution.

    ``gen`` is the machine's cooperative body
    (:meth:`BugFindingRuntime._machine_body`): a generator that yields the
    next machine id at every control transfer.  The trampoline resumes
    it when the strategy picks this machine; between resumptions the
    machine's entire action stack sits suspended inside the generator.
    ``state`` is what the enabled set and CHESS read: new, running, idle
    or done.  Seating a machine of a class not compiled yet compiles it
    (a refusal ends the execution with the compiler's error).
    """

    __slots__ = ("machine", "mid", "state", "gen")

    def __init__(self, runtime: "BugFindingRuntime", machine: Machine) -> None:
        if "_inline_ready" not in type(machine).__dict__:
            try:
                runtime._prepare(type(machine))
            except InlineCompileError as exc:
                runtime._abort(exc)
        # The one place a machine is made suspendable: its _start / _step
        # may now hand back compiled coroutines.
        machine._suspendable = True
        self.machine = machine
        self.mid = machine.id
        self.state = _NEW
        self.gen = runtime._machine_body(self)


class BugFindingRuntime(RuntimeBase):
    """A runtime whose interleavings are decided by a scheduling strategy.

    Every machine runs on the calling thread as compiled coroutines; a
    class the compiler refuses ends the execution with
    :class:`~repro.core.continuations.InlineCompileError` (from
    :meth:`execute`, after every machine has unwound), whose message
    names the method, the line and the fallback,
    :class:`~repro.testing.threads.ThreadedRuntime`.

    Parameters
    ----------
    strategy:
        The search strategy (DFS, random, replay, PCT, ...).
    max_steps:
        Depth bound on scheduling decisions per execution.  Exceeding it
        terminates the execution; with ``livelock_as_bug`` it is reported
        as a potential liveness violation (how Section 7.2.2 detects the
        German-benchmark livelock).
    record_trace:
        Record every decision so a found bug can be replayed.
    deadline:
        Absolute ``time.monotonic()`` deadline.  Unlike the engine's
        per-iteration time-limit check, this cuts off an execution *mid
        schedule* (status ``"time-bound"``), so a single long iteration
        cannot blow past the campaign budget.
    stop_check:
        Polled periodically; when it returns True the execution aborts
        with status ``"stopped"``.  Portfolio workers pass the shared
        first-bug-wins cancellation event here.
    monitors:
        Specification monitor classes (:class:`~repro.testing.monitors
        .Monitor` subclasses) attached to every execution.  Each execution
        gets fresh instances; observed events are mirrored to them
        synchronously, assertion failures become ``"monitor"`` bugs, and
        liveness monitors (any hot state) enable temperature detection.
    max_hot_steps:
        Temperature threshold: a liveness monitor that stays hot for more
        than this many consecutive steps under a *fair* strategy
        (``strategy.is_fair()``) reports a ``"liveness"`` bug naming the
        hot monitor state.  A monitor that is hot when the program
        terminates is reported regardless of the strategy's fairness.
        When liveness monitors are attached they are authoritative: the
        legacy ``livelock_as_bug`` depth-bound heuristic is suppressed.
    faults:
        A :class:`~repro.testing.faults.FaultConfig` arming deterministic
        fault injection (message drop/duplicate/delay, machine
        crash-restart).  Every injected fault is a strategy decision
        recorded in the trace under the ``"fault"`` kind, so faulty
        executions replay bit-identically on every carrier.  ``None``
        (the default) explores failure-free executions only.
    iteration_timeout:
        Per-execution wall-clock watchdog, in seconds: an execution that
        runs longer is canceled with status ``"watchdog"`` instead of
        wedging its campaign slot.  Checked at the same polling cadence
        as ``deadline``, so a handler stuck in native code without
        scheduling steps cannot be interrupted — the watchdog targets
        runaway step churn (livelock-shaped iterations with generous
        ``max_steps``).
    coverage:
        A :class:`~repro.testing.coverage.CoverageMap` to accumulate
        activity coverage into, across every execution this runtime
        runs: states entered, transitions taken, events
        sent/dequeued/dropped, machine instances and halts.  Collection
        rides the existing hook points at identical positions on every
        carrier, so for a fixed strategy seed the resulting map is
        bit-identical across them.  ``None`` (default)
        disables collection; the hooks then cost one boolean/None test.
    reduction:
        A :class:`~repro.testing.reduction.ReductionEngine` arming
        schedule-space reduction.  The runtime reports each step's
        object footprint to it (the independence oracle), consults its
        state cache at every scheduling point past the replayed prefix
        of a DFS iteration — abandoning executions that reach an
        already-explored state with status ``"pruned"`` (and a
        ``"reduction"`` trace record when a trace is recorded) — and
        feeds it the step log the DFS strategies' DPOR analysis mines
        for races.  ``None`` (the default) keeps every reduction hook
        dark.
    """

    # How many scheduling steps between deadline/stop_check polls: the
    # checks must not dominate the hot handoff path.
    _POLL_MASK = 31

    #: The carrier, as ``TestReport.effective_backend`` reports it.
    carrier = "inline"
    #: What a machine is seated in (see :meth:`_spawn`).
    _Seat = _Seat
    #: Set by a threaded subclass whose machine thread outlived an
    #: execution; the campaign loop then builds a fresh runtime.
    tainted = False

    def __init__(
        self,
        strategy: SchedulingStrategy,
        max_steps: int = 20_000,
        record_trace: bool = True,
        livelock_as_bug: bool = False,
        deadline: Optional[float] = None,
        stop_check: Optional[Callable[[], bool]] = None,
        monitors: Sequence[Type[Monitor]] = (),
        max_hot_steps: int = 1000,
        faults: Optional[FaultConfig] = None,
        iteration_timeout: Optional[float] = None,
        coverage: Optional[CoverageMap] = None,
        reduction: Optional[ReductionEngine] = None,
    ) -> None:
        super().__init__()
        if faults is not None and not isinstance(faults, FaultConfig):
            raise ValueError(f"faults must be a FaultConfig, got {faults!r}")
        if iteration_timeout is not None and iteration_timeout <= 0:
            raise ValueError(
                f"iteration_timeout must be positive, got {iteration_timeout!r}"
            )
        for monitor_cls in monitors:
            if not (isinstance(monitor_cls, type) and issubclass(monitor_cls, Monitor)):
                raise ValueError(
                    f"monitors must be Monitor subclasses, got {monitor_cls!r}"
                )
        self.strategy = strategy
        self.max_steps = max_steps
        self.record_trace = record_trace
        self.livelock_as_bug = livelock_as_bug
        self.deadline = deadline
        self.stop_check = stop_check
        self.monitors: Tuple[Type[Monitor], ...] = tuple(monitors)
        self.max_hot_steps = max_hot_steps
        self.faults = faults
        self.iteration_timeout = iteration_timeout
        # The fault choices of a send (drop, duplicate, delay, consulted
        # in that order) and of a step (crash), as (outcome, weight) pairs
        # with the weights quantized once (the config is frozen) and the
        # zero ones left out; empty when fault injection is off, so the
        # armed flags reset() derives from them keep the hot paths on
        # their fault-free branch.
        self._send_faults: Tuple[Tuple[int, int], ...] = ()
        self._crash_faults: Tuple[Tuple[int, int], ...] = ()
        self._crash_classes: Tuple[type, ...] = ()
        self._fault_budget = 0
        if faults is not None and faults.enabled:
            self._send_faults = tuple(
                (outcome, weight)
                for outcome, weight in zip(
                    (FAULT_DROP, FAULT_DUPLICATE, FAULT_DELAY), faults.message_weights
                )
                if weight
            )
            if faults.crash_weight:
                self._crash_faults = ((FAULT_CRASH, faults.crash_weight),)
            self._crash_classes = faults.crash_classes
            self._fault_budget = faults.max_faults
        self._has_liveness_monitors = any(has_hot_states(m) for m in self.monitors)
        # What follows from the monitor classes alone is computed once per
        # runtime, not per execution (the classes are fixed for a
        # campaign): their ids, the class -> registration index map, and
        # the observer tables.
        self._monitors_attached = bool(self.monitors)
        self._monitor_ids = tuple(
            MachineId(-(index + 1), monitor_cls.__name__)
            for index, monitor_cls in enumerate(self.monitors)
        )
        self._monitor_index = {
            monitor_cls: index for index, monitor_cls in enumerate(self.monitors)
        }
        self._observing_send = _Observers(self.monitors, "observes")
        self._observing_dequeue = _Observers(self.monitors, "observes_dequeue")
        self._hook_visible = (
            type(self).on_visible_operation
            is not BugFindingRuntime.on_visible_operation
        )
        # Activity-coverage collection (repro.testing.coverage): the map
        # accumulates across every execution this runtime runs, so the
        # engine reads one campaign-level map at the end.  Armed before
        # the construction-time reset() below — monitor boots during
        # reset are state entries too.  The machines' state-entry hook
        # is the map's recorder itself; None (the default) keeps it dark.
        if coverage is not None and not isinstance(coverage, CoverageMap):
            raise ValueError(f"coverage must be a CoverageMap, got {coverage!r}")
        self._cov = coverage
        if coverage is not None:
            self._hook_state = coverage.record_entry
            # Monitors visited in no execution must still contribute
            # their declared states to the uncovered report.
            for monitor_cls in self.monitors:
                coverage.ensure_class(monitor_cls, monitor=True)
        # The dequeue hook: on_event_dequeued for subclasses that
        # override it (CHESS) and when some monitor observes at dequeue
        # time — armed by reset() and dropped by close(), since the bound
        # method is a cycle through the runtime; the map's recorder
        # itself when only coverage listens.
        self._dequeue_bound = self._overridden_dequeue_hook(
            BugFindingRuntime
        ) is not None or any(m.observes_dequeue for m in self.monitors)
        self._hook_dequeued = (
            None if coverage is None or self._dequeue_bound else coverage.record_dequeue
        )
        # Schedule-space reduction (repro.testing.reduction): like the
        # coverage map, the engine spans the whole campaign while the
        # runtime feeds it per-execution facts.  Armed before the
        # construction-time reset() below, which keys per-execution
        # reduction state off it.
        if reduction is not None and not isinstance(reduction, ReductionEngine):
            raise ValueError(
                f"reduction must be a ReductionEngine, got {reduction!r}"
            )
        self._red = reduction
        # Per-execution state (see reset()).  Initialized non-virtually so
        # subclass __init__ order cannot break construction.
        BugFindingRuntime.reset(self)

    # ==================================================================
    # Lifecycle
    # ==================================================================
    def reset(self) -> None:
        """Return the runtime to a pristine state so it can run another
        execution.  ``execute`` calls this automatically, which also
        repairs the stale ``_current``/counter state a canceled or
        depth-bounded execution leaves behind.

        Subclasses with per-execution state (e.g. the CHESS baseline's
        vector clocks) must override this and call ``super().reset()``.
        """
        if self._dequeue_bound:
            self._hook_dequeued = self.on_event_dequeued
        # Registry state from RuntimeBase.
        self._machines.clear()
        self._next_id = 0
        self._error = None
        # Execution state.  The seats, in machine-creation order: a
        # machine's id value is its index here, and the only key the hot
        # path looks a machine up by.
        self._worker_list: List[_Seat] = []
        # The schedulable set, maintained incrementally (sorted by machine
        # id, i.e. creation order — the order of the seat walk that
        # tests/reference_runtime.py keeps as the oracle): _spawn adds,
        # idle-entry and halt remove, and _idle_pending holds idle seats
        # whose deliverability must be re-checked (an enqueue landed since
        # they idled) at the next scheduling point.  See _schedulable.
        self._enabled: List[MachineId] = []
        self._idle_pending: List[_Seat] = []
        # Per-machine log of nondeterministic outcomes (bool/int/fault)
        # consumed this execution, keyed by machine id value.  Part of the
        # state fingerprint: two states are only equivalent if every
        # machine's *suspended handler* is at the same position, and a
        # handler's position is determined by the machine's visible state
        # plus the nondeterminism it consumed.  Schedule permutations of
        # independent steps preserve each machine's own log, so diamonds
        # still merge.  None (no allocation, no appends) unless the
        # reduction engine's state cache is armed.
        self._nondet_log: Optional[Dict[int, List[int]]] = (
            {} if self._red is not None and self._red.cache_on else None
        )
        self._canceled = False
        self._finished = False
        self._status = "ok"
        self._bug: Optional[BugReport] = None
        # The trace and its bound append (ScheduleTrace.recorder), set by
        # execute() when traces are recorded: a decision is recorded as
        # one code, ``value << 3 | tag`` (trace.py's layout).
        self._trace: Optional[ScheduleTrace] = None
        self._record: Optional[Callable[[int], None]] = None
        self._sched_points = 0
        self._steps = 0
        self._current: Optional[MachineId] = None
        # Per-iteration watchdog deadline, armed by execute().
        self._iter_deadline: Optional[float] = None
        self._poll = (
            self.deadline is not None
            or self.stop_check is not None
            or self.iteration_timeout is not None
        )
        # Fault-injection state: fired-fault count, armed flags (cleared
        # when the budget runs out, stopping all further consultation),
        # and replay's re-firing of recorded outcomes instead of
        # consulting probabilities (SchedulingStrategy.next_fault_outcome).
        self._faults_injected = 0
        self._send_fault_active = bool(self._send_faults) and self._fault_budget > 0
        self._crash_fault_active = bool(self._crash_faults) and self._fault_budget > 0
        self._fault_probe = self.strategy.next_fault_outcome
        # Telemetry counters: injected-fault outcomes by FAULT_* code and
        # strategy-consulted (non-forced) scheduling decisions.
        self._fault_kinds = [0, 0, 0, 0, 0]
        self._consulted = 0
        # Specification monitors: fresh instances per execution (their
        # state is per-schedule) and temperature bookkeeping.
        # ``_hot_deadline`` is the earliest step at which some hot monitor
        # exceeds the threshold, one of the bounds ``_arm_check`` folds
        # into the counting hot path's single comparison.
        self._monitors = []
        self._hot_since: Dict[Monitor, int] = {}
        self._hot_deadline = _NO_DEADLINE
        self._arm_check()
        # Temperature detection needs fairness: under an unfair strategy a
        # monitor can stay hot forever because the strategy starves the
        # machine that would cool it, not because the program livelocks.
        self._temp_enabled = self._has_liveness_monitors and self.strategy.is_fair()
        for index, monitor_cls in enumerate(self.monitors):
            instance = monitor_cls(self, self._monitor_ids[index])
            instance._monitor_index = index
            self._monitors.append(instance)
        for instance in self._monitors:
            instance._boot()
            if self._temp_enabled and instance.is_hot:
                self._note_temperature(instance)

    def close(self) -> None:
        """Release the last execution: its machines, seats, bug, trace
        and monitors, and the bound dequeue hook (``reset`` arms it
        again), so that nothing a campaign hands back is kept alive by
        the runtime that ran it, and the runtime is in no cycle.  The campaign loop calls it
        once, at the end; :meth:`execute` still works after it."""
        self._machines.clear()
        self._worker_list = []
        self._idle_pending = []
        self._bug = self._error = None
        self._trace = self._record = None
        self._monitors = []
        self._hot_since = {}
        if self._dequeue_bound:
            self._hook_dequeued = None

    # ==================================================================
    # Public entry point
    # ==================================================================
    @property
    def machine_count(self) -> int:
        """Number of machines the current (or most recent) execution has
        created, the main machine included."""
        return len(self._machines)

    def execute(self, main_cls: Type[Machine], payload: Any = None) -> ExecutionResult:
        """Run the program once, from start to completion, under the
        strategy's schedule.  Reusable: each call starts from a reset
        runtime and has unwound every machine before returning."""
        # A main class the coroutine compiler refuses fails here, before
        # anything runs (idempotent once compiled).
        self._prepare(main_cls)
        self.reset()
        if self.iteration_timeout is not None:
            self._iter_deadline = time.monotonic() + self.iteration_timeout
        trace = None
        if self.record_trace:
            trace = self._trace = ScheduleTrace()
            self._record = trace.recorder()
        red = self._red
        if red is not None:
            red.begin_execution()
        mid = self._spawn(main_cls, payload)
        # The very first decision is forced: only the main machine exists.
        self.strategy.observe_forced(mid)
        if trace is not None:
            self._record(mid.value << 3 | SCHED_TAG)
        if red is not None:
            red.chose(mid.value)
        self._run(self._worker_list[mid.value])
        if self._error is not None:
            raise self._error  # recorded by _abort; everything has unwound
        return ExecutionResult(
            status=self._status,
            steps=self._steps,
            scheduling_points=self._sched_points,
            trace=trace,
            bug=self._bug,
            fault_kinds=tuple(self._fault_kinds),
            # A pick a DPOR frame predetermined had no real alternative.
            consulted=self._consulted - (red.forced if red is not None else 0),
            diverged=self.strategy.diverged,
        )

    # ==================================================================
    # RuntimeBase interface (called from inside running actions)
    # ==================================================================
    def create_machine(
        self,
        machine_cls: Type[Machine],
        payload: Any = None,
        creator: Optional[Machine] = None,
    ) -> MachineId:
        mid = self._spawn(machine_cls, payload)
        if creator is not None:
            # Scheduling point *after* creation: the new machine is now a
            # branch the strategy may choose.
            self._schedule(creator._id)
        return mid

    def send(
        self, target: MachineId, event: Event, sender: Optional[Machine] = None
    ) -> None:
        if sender is None:
            self._point(None, target, event)  # nobody runs: the effect alone
        else:
            self._schedule(sender._id, target, event)

    def _point(
        self,
        current: Optional[MachineId],
        target: Optional[MachineId] = None,
        event: Optional[Event] = None,
        running: bool = True,
    ) -> Optional[MachineId]:
        """A scheduling point, whole, in this one frame: the effect of
        the send that caused it, then the paper's ``Schedule``.

        *The send* (``event`` is None at the point after a
        ``create_machine`` and at a hand-off): mirror the event to the
        monitors observing it, then enqueue it — under the message fault
        the strategy picks, if any — and note an idle target for the
        next drain.  The target is found by its seat index; an id that
        names no machine of this execution (a monitor's, another
        runtime's, a stale one whose seat holds another class now)
        reaches nothing, like a send to a halted machine.

        *The decision*: count the step, consult the state cache, let the
        strategy pick among the enabled machines and put the pick on
        record.  With one machine enabled the decision is forced: the
        strategy is not consulted (``observe_forced`` keeps replay
        aligned) but the decision is recorded all the same, so traces do
        not depend on whether it was.  ``running=False`` is
        :meth:`_pick_successor`'s entry: ``current`` gave the turn up,
        so no step is counted.

        Answers with the machine to transfer control to, or ``None``
        when ``current`` keeps running; the carrier does the transfer.
        Everything a scheduling point can end the execution with
        (cancellation, a bound, a liveness report, a pruned state, a
        monitor failure) is raised from here, into the frame that called
        the primitive."""
        red = self._red
        if event is not None:
            if self._monitors_attached:
                observers = self._observing_send[type(event)]
                if observers:
                    self._deliver_to_monitors(observers, event)
            machine = None
            if target.__class__ is MachineId:
                index = target.value
                if 0 <= index < len(self._worker_list):
                    seat = self._worker_list[index]
                    if seat.mid is target or seat.mid.name == target.name:
                        machine = seat.machine
                        if machine is not None and machine._halted:
                            machine = None
            if self._cov is not None:
                self._cov.record_send(event, machine is None)
            if machine is not None:
                if red is not None:
                    # Independence oracle: the target inbox is part of
                    # this step's footprint (with or without a fault —
                    # the fault decision never commutes with its own
                    # send).
                    red.effects.append(index)
                if self._send_fault_active and (
                    fault := self._consult_fault(self._send_faults)
                ):
                    delivered = self._apply_send_fault(machine, event, fault)
                else:
                    machine._inbox.append(event)
                    delivered = True
                if delivered:
                    if not machine._inbox_dirty:
                        machine._inbox_dirty = True
                        # An idle seat has its deliverability re-checked
                        # at the next scheduling point (see _schedulable).
                        if seat.state is _IDLE:
                            self._idle_pending.append(seat)
                    if self._hook_visible:
                        self.on_visible_operation(machine, "enqueue")
            if current is None:
                return None
        if running:
            if self._canceled:
                raise ExecutionCanceled()
            steps = self._steps + 1
            if steps > self._check_at:
                self._count_step()
            else:
                self._steps = steps
            if red is not None and red.cache_on and red.diverged:
                self._reduction_check()
            if self._idle_pending:
                self._schedulable()
        elif red is not None and red.cache_on and red.diverged:
            self._reduction_check()
        enabled = self._enabled
        self._sched_points += 1
        if len(enabled) == 1:
            choice = enabled[0]
            self.strategy.observe_forced(choice)
        else:
            # The runtime's own list, uncopied: a strategy only reads it
            # (SchedulingStrategy.pick_machine).
            choice = self.strategy.pick_machine(enabled, current)
            self._consulted += 1
        if self._record is not None:
            self._record(choice.value << 3)  # SCHED_TAG is 0
        if red is not None:
            red.chose(choice.value)
        return None if choice.value == current.value else choice

    def nondet(self, machine: Machine) -> bool:
        if self._canceled:
            raise ExecutionCanceled()
        value = self.strategy.pick_bool()
        if self._record is not None:
            self._record(value << 3 | BOOL_TAG)
        log = self._nondet_log
        if log is not None:
            log.setdefault(machine.id.value, []).append(int(value))
        return value

    def nondet_int(self, machine: Machine, bound: int) -> int:
        if self._canceled:
            raise ExecutionCanceled()
        if not 0 < bound <= NONDET_INT_LIMIT:
            # Refused before drawing, so every strategy and replay fail
            # alike: a trace holds a draw as a 64-bit value.
            raise PSharpError(
                f"nondet_int bound must be in 1..2**63, got {bound!r}"
            )
        value = self.strategy.pick_int(bound)
        if self._record is not None:
            self._record(value << 3 | INT_TAG)
        log = self._nondet_log
        if log is not None:
            log.setdefault(machine.id.value, []).append(value)
        return value

    # ------------------------------------------------------------------
    # Fault injection (see repro.testing.faults)
    # ------------------------------------------------------------------
    def _consult_fault(self, choices: Tuple[Tuple[int, int], ...]) -> int:
        """One fault consultation: decide (via the strategy) and record
        the fault outcome of the point being performed — a send, whose
        ``choices`` are ``_send_faults``, or a machine's next step, whose
        are ``_crash_faults``.  The strategy is asked ``pick_fault(weight)``
        for each choice in order, and the first that fires is the outcome.

        Called only while that point's faults are armed and budget
        remains.  The outcome — including "no fault" — is appended to the
        trace under the ``"fault"`` kind, so replay re-fires exactly the
        recorded faults: consultation points are positionally aligned
        because the replaying runtime runs with the same
        :class:`FaultConfig`.  A recorded outcome this point cannot take
        means the replayed schedule diverged: it falls back to no fault.
        """
        probe = self._fault_probe
        if probe is not None:
            recorded = probe()
            outcome = FAULT_NONE
            for candidate, _ in choices:
                if candidate == recorded:
                    outcome = recorded
                    break
        else:
            pick_fault = self.strategy.pick_fault
            for outcome, weight in choices:
                if pick_fault(weight):
                    break
            else:
                outcome = FAULT_NONE
        if self._record is not None:
            self._record(outcome << 3 | FAULT_TAG)
        log = self._nondet_log
        if log is not None and self._current is not None:
            # Part of the machine's consumed-nondeterminism fingerprint: a
            # dropped send leaves the same inboxes as no send at all, so
            # the fault outcome itself must distinguish the two states.
            log.setdefault(self._current.value, []).append(outcome)
        if outcome != FAULT_NONE:
            self._faults_injected += 1
            self._fault_kinds[outcome] += 1
            if self._faults_injected >= self._fault_budget:
                self._send_fault_active = False
                self._crash_fault_active = False
        return outcome

    def _apply_send_fault(self, target: Machine, event: Event, outcome: int) -> bool:
        """Enqueue ``event`` to ``target`` under a non-trivial fault
        outcome; False when nothing was enqueued.  Drop loses the message
        entirely; duplicate enqueues it twice; delay makes it overtake the
        previously queued message (pairwise reordering — a no-op on an
        empty inbox)."""
        if outcome == FAULT_DROP:
            if self._cov is not None:
                self._cov.record_drop(event)
            return False
        inbox = target._inbox
        if outcome == FAULT_DUPLICATE:
            inbox.append(event)
            inbox.append(event)
        elif inbox:  # FAULT_DELAY
            inbox.insert(len(inbox) - 1, event)
        else:
            inbox.append(event)
        return True

    def _crash_restart(self, machine: Machine) -> None:
        """Crash ``machine`` in place: wipe its volatile state (fields,
        inbox, raised event, current state) and reposition it at its
        initial state with its original creation payload, as if the node
        rebooted.  Fields named in the class's ``persistent_fields``
        survive when the fault config models durable storage
        (``persistent_state=True``).  The caller re-enters the initial
        state through the machine's start path."""
        saved = None
        faults = self.faults
        if faults is not None and faults.persistent_state:
            fields = type(machine).persistent_fields
            if fields:
                values = machine.__dict__
                saved = [(name, values[name]) for name in fields if name in values]
        machine.__dict__.clear()
        machine._inbox.clear()
        machine._raised = None
        machine._current_state = None
        machine._current_event = machine._boot_event
        machine._inbox_dirty = True
        machine._idle_deliverable = False
        if saved:
            machine.__dict__.update(saved)

    def on_machine_halted(self, machine: Machine) -> None:
        value = machine._id.value
        if value >= 0:  # a monitor (negative id) holds no seat
            self._worker_list[value].state = _DONE
            # A machine only halts while running, so it is in the enabled
            # set; the guard keeps double halts (or exotic subclass call
            # orders) harmless.
            enabled = self._enabled
            index = bisect_left(enabled, value, key=_MID_VALUE)
            if index < len(enabled) and enabled[index].value == value:
                del enabled[index]
        if self._cov is not None:
            self._cov.record_halt(type(machine))
        if self._monitors_attached:
            observers = self._observing_send[EMachineHalted]
            if observers:
                self._deliver_to_monitors(observers, EMachineHalted(machine._id))

    def on_event_dequeued(self, machine: Machine, event: Event) -> None:
        if self._cov is not None:
            self._cov.record_dequeue(machine, event)
        if self._monitors_attached:
            observers = self._observing_dequeue[type(event)]
            if observers:
                self._deliver_to_monitors(observers, event)

    # ------------------------------------------------------------------
    # Specification monitors
    # ------------------------------------------------------------------
    def invoke_monitor(
        self, monitor_cls: type, event: Event, source: Optional[Machine] = None
    ) -> None:
        """Explicit monitor invocation (``machine.monitor(Cls, event)``).

        A no-op when ``monitor_cls`` is not attached, so instrumented
        programs run unchanged without their specifications."""
        index = self._monitor_index.get(monitor_cls)
        if index is not None:
            self._deliver_to_monitors((index,), event)

    def _deliver_to_monitors(self, observers: Tuple[int, ...], event: Event) -> None:
        """Run ``event`` through each observing monitor (named by
        registration index) synchronously.

        Every invocation is recorded in the trace (kind ``"monitor"``,
        value: the monitor's registration index) so traces with
        specifications attached stay bit-identical across carriers
        and replays.  A failing monitor raises :class:`MonitorError`
        (bug kind ``"monitor"``) from :meth:`Monitor._observe`."""
        monitors = self._monitors
        red = self._red
        for index in observers:
            instance = monitors[index]
            if self._record is not None:
                self._record(index << 3 | MONITOR_TAG)
            if red is not None:
                # Independence oracle: monitor state is order-sensitive,
                # so two steps observed by the same monitor never commute
                # even when their send targets differ.  Monitors get the
                # negative keys (machine inboxes are >= 0).
                red.effects.append(-(index + 1))
            instance._observe(event)
            if self._temp_enabled:
                self._note_temperature(instance)

    def _note_temperature(self, instance: Monitor) -> None:
        """Update hot-state bookkeeping after ``instance`` processed an
        event.  A monitor stays "hot since" its first hot observation until
        it reaches any non-hot state (hot-to-hot transitions keep
        accumulating temperature, as in P#'s liveness monitors)."""
        hot_since = self._hot_since
        if instance.is_hot:
            if instance not in hot_since:
                hot_since[instance] = self._steps
                deadline = self._steps + self.max_hot_steps
                if deadline < self._hot_deadline:
                    self._hot_deadline = deadline
                    self._arm_check()
        elif instance in hot_since:
            del hot_since[instance]
            self._hot_deadline = (
                min(hot_since.values()) + self.max_hot_steps
                if hot_since else _NO_DEADLINE
            )
            self._arm_check()

    def _report_hot_liveness(self) -> None:
        """A monitor exceeded the temperature threshold: report a liveness
        bug naming the hot monitor state (Section 7.2's hot/cold liveness
        detection, replacing the bare depth-bound heuristic)."""
        instance = min(self._hot_since, key=self._hot_since.get)
        since = self._hot_since[instance]
        state = instance.current_state
        if self._record is not None:
            # The firing is part of the schedule record: replay uses it to
            # fire at exactly this point, and its absence in a trace
            # proves the recorded run survived its hot stretches.
            self._record(instance._monitor_index << 3 | LIVENESS_TAG)
        self._report_liveness(
            f"liveness violation: monitor {type(instance).__name__} stayed hot "
            f"in state {state!r} for {self._steps - since} fair steps "
            f"(threshold {self.max_hot_steps}, hot since step {since})",
            instance, monitor=type(instance).__name__, state=state,
        )

    def _check_monitors_at_termination(self) -> None:
        """A liveness monitor that is hot when the program terminates is a
        definitive violation — no fairness argument needed, the program
        finished and the obligation was never met."""
        for instance in self._monitors:
            if instance.is_hot:
                state = instance.current_state
                self._report_liveness(
                    f"liveness violation: monitor {type(instance).__name__} is "
                    f"hot in state {state!r} at program termination "
                    f"(step {self._steps})",
                    instance, monitor=type(instance).__name__, state=state,
                )
                return

    # Hook for the CHESS baseline: called on extra visible operations
    # (queue ops; CHESS hooks field writes itself).  The base runtime ignores them — this is
    # precisely the P# optimization of Section 6.2.
    def on_visible_operation(self, machine: Machine, kind: str) -> None:
        pass

    # ==================================================================
    # Worker machinery
    # ==================================================================
    def _spawn(self, machine_cls: Type[Machine], payload: Any) -> MachineId:
        machine = self._instantiate(machine_cls, payload)
        if self._cov is not None:
            self._cov.record_machine(machine_cls)
        if self._red is not None:
            # Independence oracle: creating a machine touches it (nothing
            # else can have, yet).
            self._red.effects.append(machine.id.value)
        self._worker_list.append(self._Seat(self, machine))
        # New ids are allocated in increasing order, so appending keeps
        # the enabled set sorted.
        self._enabled.append(machine.id)
        return machine.id

    def _prepare(self, machine_cls: Type[Machine]) -> None:
        """Compile ``machine_cls`` for this carrier (idempotent); raises
        :class:`InlineCompileError` when the compiler refuses it."""
        compile_inline_machine(machine_cls)

    def _abort(self, error: InlineCompileError) -> None:
        """Give the execution up on a configuration error of the campaign
        (a handler the coroutine compiler cannot reshape) — not a bug in
        the program under test, so no BugReport is fabricated.  Called
        from inside a handler's frame, where raising ``error`` itself
        would let a user ``except Exception`` swallow it: record it,
        finish, and unwind with :class:`ExecutionCanceled` (a
        ``BaseException``); :meth:`execute` raises the recorded error once
        every machine has unwound."""
        if self._error is None:
            self._error = error
        self._finish("stopped")
        raise ExecutionCanceled()

    def _machine_body(self, worker: _Seat):
        """One machine's life under the schedule, on every carrier: a
        generator that *yields* the machine to run next when this one
        idles (it is resumed once it is scheduled again), *returns* it
        when this one is done, and returns ``None`` when nobody is left
        to run — the execution is over.

        The stepping pair is the machine's ``_start`` / ``_step``.  On a
        suspendable machine (see :class:`_Seat`) they hand back ``True`` /
        ``False``, or the coroutine of a compiled handler, which is
        delegated to: it yields exactly where one of its scheduling points
        picked another machine, and whatever a scheduling point raises
        unwinds through the user's frames into the carrier, which
        classifies it.  A threaded carrier's machines run their handlers
        plain, blocking at scheduling points in :meth:`_schedule`.
        """
        machine = worker.machine
        mid = worker.mid
        start, step = machine._start, machine._step
        count_step = self._count_step
        hook_visible = self._hook_visible
        crash_eligible = bool(self._crash_faults) and (
            not self._crash_classes or isinstance(machine, self._crash_classes)
        )
        worker.state = _RUNNING
        activation = start()
        while True:
            if activation is not True and activation is not False:
                yield from activation
                activation = True
            if machine._halted:
                break
            if activation is False:
                worker.state = _IDLE
                # The step that just returned False scanned the inbox and
                # found nothing deliverable; nothing can have been
                # enqueued since (only one machine runs at a time), so
                # that verdict seeds the memo.
                machine._idle_deliverable = False
                machine._inbox_dirty = False
                enabled = self._enabled
                del enabled[bisect_left(enabled, mid.value, key=_MID_VALUE)]
                choice = self._pick_successor(mid)
                if choice is None:
                    return None
                yield choice
                # Scheduled again: there is a deliverable event.
                worker.state = _RUNNING
            # Crash-fault consultation point, between steps so every
            # handler stays atomic with respect to its own crash.
            if (
                crash_eligible
                and self._crash_fault_active
                and self._consult_fault(self._crash_faults)
            ):
                self._crash_restart(machine)
                activation = start()
                continue
            # Fast path of _count_step: bump the counter, fall back to
            # the real method at the step where one of its checks fires.
            steps = self._steps + 1
            if steps > self._check_at:
                count_step()
            else:
                self._steps = steps
            if hook_visible:
                self.on_visible_operation(machine, "dequeue")
            activation = step()
        worker.state = _DONE
        # Returning (instead of yielding) finishes this generator, making
        # its end-of-execution cleanup free.
        return self._pick_successor(mid)

    def _report_worker_exception(self, machine: Machine, exc: BaseException) -> None:
        """Classify an exception that escaped a machine's body into the
        paper's bug kinds.  Shared by every carrier so a given failure is
        reported identically on each."""
        if isinstance(exc, ExecutionCanceled):
            return
        if isinstance(exc, MonitorError):
            self._report_bug("monitor", str(exc), exc.monitor, exc)
        elif isinstance(exc, AssertionFailure):
            self._report_bug("assertion-failure", str(exc), machine, exc)
        elif isinstance(exc, UnhandledEventError):
            self._report_bug("unhandled-event", str(exc), machine, exc)
        elif isinstance(exc, PSharpError):
            self._report_bug("runtime-error", str(exc), machine, exc)
        elif isinstance(exc, Exception):  # paper error class (iii)
            wrapped = ActionError(machine, machine.current_state or "?", exc)
            self._report_bug("action-exception", str(wrapped), machine, wrapped)
        else:
            # KeyboardInterrupt and friends are not bugs; let them fly.
            raise exc

    # ------------------------------------------------------------------
    # The carrier: moving control to the machine a decision named
    # ------------------------------------------------------------------
    def _run(self, first: _Seat) -> None:
        """The carrier, a trampoline: resume one machine's body at a
        time; it runs up to its next control transfer, which arrives back
        here as the chosen machine.  A non-forced scheduling decision thus
        costs a strategy call plus a generator resume instead of an OS
        thread switch."""
        current = first
        # Machine ids are allocated in creation order and every machine
        # owns exactly one seat, so _worker_list[mid.value] is the seat —
        # an index instead of a dict probe on every control transfer.
        workers = self._worker_list
        try:
            while True:
                self._current = current.mid
                try:
                    choice = current.gen.send(None)
                except StopIteration as stop:
                    # A finished body hands over its final choice (machine
                    # done); None means the execution is over.
                    choice = stop.value
                    if choice is None:
                        break
                except BaseException as exc:  # noqa: BLE001 - classified
                    self._report_worker_exception(current.machine, exc)
                    break
                if self._finished:
                    break
                current = workers[choice.value]
            if not self._finished:
                self._finish("ok")
        finally:
            # Unwind every still-suspended machine with ExecutionCanceled,
            # thrown in at the scheduling point it is suspended at, so
            # user try/finally blocks run.
            self._canceled = True
            for worker in self._worker_list:
                gen, worker.gen = worker.gen, None
                if gen is None or gen.gi_frame is None:
                    continue  # finished bodies have nothing to unwind
                try:
                    gen.throw(ExecutionCanceled())
                except (StopIteration, ExecutionCanceled):
                    pass
                except BaseException as exc:  # noqa: BLE001 - classified
                    self._report_worker_exception(worker.machine, exc)
                finally:
                    gen.close()

    # ------------------------------------------------------------------
    # The scheduler
    # ------------------------------------------------------------------
    def _schedulable(self) -> List[MachineId]:
        """The enabled machines, maintained incrementally.

        ``_enabled`` (sorted by machine id, i.e. seat order) is kept up
        to date by the events that can change it — spawn appends, halt
        and idle-entry remove — except for one case that is deferred to
        here: an enqueue to an *idle* machine parks its seat on
        ``_idle_pending`` instead of re-scanning its inbox at send time,
        and this drain settles the deliverability verdict once per
        scheduling point.  A scheduling point enters it only when a seat
        is pending; the common one reads ``_enabled`` as it stands
        instead of walking O(#machines) seats.  Invariant: an IDLE
        machine with a dirty inbox is on ``_idle_pending``;
        deliverability is monotone under enqueue, so an
        already-deliverable machine never needs rechecking.  Returns
        ``_enabled`` itself, not a copy.
        """
        pending = self._idle_pending
        if pending:
            enabled = self._enabled
            for seat in pending:
                # A seat that left IDLE since it was parked (it was
                # scheduled, or halted) settles its verdict elsewhere.
                if seat.state is _IDLE:
                    machine = seat.machine
                    if machine._inbox_dirty:
                        machine._inbox_dirty = False
                        if not machine._idle_deliverable:
                            # An idle machine is started, not halted and
                            # has nothing raised: the inbox scan is all
                            # of _has_deliverable() that applies.
                            machine._idle_deliverable = (
                                machine._deliverable_index() is not None
                            )
                            if machine._idle_deliverable:
                                insort(enabled, seat.mid, key=_MID_VALUE)
            pending.clear()
        return self._enabled

    def _schedule(
        self,
        current: MachineId,
        target: Optional[MachineId] = None,
        event: Optional[Event] = None,
    ) -> None:
        """A scheduling point reached by a plain call of ``Machine.send``
        / ``create_machine``: what a threaded carrier blocks in.  Here
        only code the compiler never reshaped gets this far (a handler
        with no source, one that is not a plain method, a ``super()``
        call, a method or field lambda reached other than by a direct
        ``self.<name>(...)`` call), and there is no thread to block: the
        execution ends with the refusal, naming the caller's frame."""
        self._refuse_here(current, "a scheduling call the compiler did not reshape "
                          "(no source, not a plain method, super(), or reached "
                          "other than by a direct self.<name>(...) call)")

    def _unreshaped_lambda(self, *_args: Any, **_kwargs: Any) -> None:
        """What a compiled call of a sending field runs when the field
        holds a lambda without a generator twin — one bound by code the
        compiler did not reshape: the execution ends with the refusal."""
        self._refuse_here(self._current, "a call of a sending lambda bound by code "
                          "the compiler did not reshape")

    def _refuse_here(self, current: MachineId, what: str) -> None:
        frame = sys._getframe(1)
        while frame.f_back is not None and frame.f_globals.get("__name__") in (
            __name__, "repro.core.machine",
        ):
            frame = frame.f_back
        where = f"{type(self._machines[current]).__name__}.{frame.f_code.co_name}:{frame.f_lineno}"
        self._abort(refusal(where, what))

    def _pick_successor(self, mid: MachineId) -> Optional[MachineId]:
        """The hand-off decision: who runs next when machine ``mid`` gives
        up control without remaining schedulable (idle or done).  ``None``
        means nobody can — the execution has been finished ("ok", or a
        liveness bug) and the caller unwinds."""
        if self._idle_pending:
            self._schedulable()
        if not self._enabled:
            if self._monitors_attached:
                # Terminal quiescence: a still-hot liveness monitor turns
                # the "ok" outcome into a liveness bug (_finish("ok")
                # below is then a no-op — first finish wins).
                self._check_monitors_at_termination()
            self._finish("ok")
            return None
        # Termination (empty enabled set) is never pruned — the monitor
        # checks above must run — so the point's reduction check sits
        # after it.
        return self._point(mid, running=False)

    def _arm_check(self) -> None:
        """Set ``_check_at``, the last step the hot paths count without
        :meth:`_count_step`: one below the earliest step at which one of
        its checks fires — the hot-monitor deadline, ``max_steps``, or
        the next deadline/stop_check poll.  Called whenever one of those
        moves, so the hot paths compare one number."""
        limit = self._hot_deadline if self._hot_deadline < self.max_steps else self.max_steps
        if self._poll:
            polled = self._steps | self._POLL_MASK  # the next poll is one above
            if polled < limit:
                limit = polled
        self._check_at = limit

    def _count_step(self) -> None:
        steps = self._steps + 1
        self._steps = steps
        self._arm_check()
        if steps > self._hot_deadline:
            # A liveness monitor stayed hot beyond the temperature
            # threshold under a fair schedule: the precise detection,
            # checked before the blunt depth bound below.  A replay
            # fires exactly where the recorded run fired (its trailing
            # "liveness" trace marker): a recorded run that survived
            # this hot stretch must be replayed to *its* bug, not raced
            # to a different one.
            if self.strategy.temperature_may_fire():
                self._report_hot_liveness()
                raise ExecutionCanceled()
        if self._poll and (steps & self._POLL_MASK) == 0:
            if self.deadline is not None and time.monotonic() >= self.deadline:
                self._finish("time-bound")
                raise ExecutionCanceled()
            if self.stop_check is not None and self.stop_check():
                self._finish("stopped")
                raise ExecutionCanceled()
            if (
                self._iter_deadline is not None
                and time.monotonic() >= self._iter_deadline
            ):
                # Per-iteration watchdog: this execution is stuck; cancel
                # it (status "watchdog") so the campaign moves on instead
                # of wedging its slot.
                self._finish("watchdog")
                raise ExecutionCanceled()
        if steps > self.max_steps:
            # The depth-bound heuristic only means "potential livelock"
            # when (a) the caller asked for it, (b) the strategy is fair —
            # under DFS/PCT a long schedule is usually the strategy
            # starving a machine, not the program spinning — and (c)
            # temperature detection is not armed.  Armed means it *could
            # have fired* before this cutoff (liveness monitors attached,
            # fair strategy, threshold below the depth bound): reaching
            # the bound with every monitor cool then proves the spin is
            # benign.  A threshold at or above max_steps can never fire,
            # so it must not suppress the heuristic.
            temperature_armed = (
                self._temp_enabled and self.max_hot_steps < self.max_steps
            )
            # A diverged replay (recorded decisions exhausted early, the
            # unfair first-enabled fallback running since) must not
            # fabricate a livelock the recorded run never reported; a
            # faithful reproduction hits this cutoff with diverged False.
            if (
                self.livelock_as_bug
                and self.strategy.is_fair()
                and not temperature_armed
                and not self.strategy.diverged
            ):
                machine = self._machines.get(self._current)
                self._report_liveness(
                    f"depth bound of {self.max_steps} scheduling steps "
                    f"exceeded at step {steps} (last scheduled machine: "
                    f"{machine}): potential livelock",
                    machine, machine=machine,
                )
            else:
                self._finish("depth-bound")
            raise ExecutionCanceled()

    # ------------------------------------------------------------------
    # Schedule-space reduction (repro.testing.reduction)
    # ------------------------------------------------------------------
    def _fingerprint_inputs(self) -> tuple:
        """What a state fingerprint is computed from, as
        :func:`repro.testing.reduction.state_fingerprint` takes it."""
        return (
            self._machines.values(), self._monitors, self._nondet_log,
            self._steps, self._faults_injected,
        )

    def state_fingerprint(self) -> bytes:
        """A stable 16-byte digest of the execution's visible state,
        computed from scratch: every machine in creation order, every
        monitor, the step budget already spent and the fault count (see
        :func:`repro.testing.reduction.state_fingerprint` for what each
        contributes).  Independent of ``PYTHONHASHSEED``, carrier and
        process — equal digests across carriers are part of the
        parity contract and are asserted in the test-suite.  The state
        cache consults :meth:`ReductionEngine.fingerprint`, which reuses
        the digests of the machines the step log says were not touched
        and must equal this."""
        return state_fingerprint(*self._fingerprint_inputs())

    def _reduction_check(self) -> None:
        """State-cache consultation, run at a non-terminal scheduling
        point before the strategy is consulted.  ``_point`` calls it only
        while the cache is on and the engine's ``diverged`` flag is set:
        the DFS strategy clears the flag while an iteration replays the
        previous schedule's prefix, which must not prune itself.  Past
        it, a fingerprint already in the cache proves the subtree ahead
        was fully explored, so the execution is cut."""
        red = self._red
        reason = red.check_state(red.fingerprint(*self._fingerprint_inputs()))
        if reason:
            if self._record is not None:
                self._record(reason << 3 | REDUCTION_TAG)
            self._finish("pruned")
            raise ExecutionCanceled()

    # ------------------------------------------------------------------
    # Termination plumbing
    # ------------------------------------------------------------------
    def _report_liveness(self, message: str, culprit: Any, **where: Any) -> None:
        """Report a liveness bug blamed on ``culprit`` (a hot monitor, or
        the last scheduled machine), its :class:`LivenessError` naming
        ``where`` (``monitor`` and ``state``, or ``machine``) and the
        step."""
        self._report_bug(
            "liveness", message, culprit,
            LivenessError(message, step=self._steps, **where),
        )

    def _report_bug(
        self,
        kind: str,
        message: str,
        machine: Optional[Machine],
        exc: BaseException,
    ) -> None:
        if self._bug is None:
            self._bug = BugReport(
                kind=kind,
                message=message,
                machine=machine,
                trace=self._trace,
                exception=exc,
                step=self._steps,
            )
        self._finish("bug")

    def _finish(self, status: str) -> None:
        if not self._finished:
            self._finished = True
            self._status = status
