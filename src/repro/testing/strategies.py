"""Scheduling strategies for systematic concurrency testing.

The paper implements "a depth-first-search (DFS) and a random scheduler
(both embedded in the P# runtime)" (Section 6.2).  We additionally provide
replay (for reproducing bugs from traces), PCT [4] and randomized
delay-bounding [9, 25] as extensions — both are cited by the paper as the
inspiration for its testing methodology.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from bisect import bisect_left
from operator import attrgetter
from typing import Callable, List, Optional, Sequence

from ..core.events import MachineId
from ..errors import PSharpError
from .faults import FAULT_SCALE
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

# Everything a strategy keeps per machine is keyed by ``MachineId.value``
# (an int: hashed and compared in C), never by the MachineId, whose
# ``__hash__`` / ``__eq__`` are Python frames; this reads the key in C too.
_MID_VALUE = attrgetter("value")
_FAULT_BITS = FAULT_SCALE.bit_length()


class SchedulingStrategy(ABC):
    """Interface between the bug-finding runtime and a search strategy.

    One *iteration* is one terminating execution of the program under test.
    The campaign loop calls :meth:`attach_reduction` once and
    :meth:`prepare_iteration` before each execution.  The runtime then
    asks a strategy exactly what this class declares, and nothing by
    name:

    * :meth:`pick_machine` at every scheduling point with a choice, and
      :meth:`observe_forced` at every one without;
    * :meth:`pick_bool` / :meth:`pick_int` at every controlled
      nondeterministic choice;
    * :meth:`pick_fault` at every fault consultation, unless
      :attr:`next_fault_outcome` is set;
    * :meth:`is_fair` when an execution starts and at the depth bound
      (temperature detection and the livelock heuristic need fairness);
    * :meth:`temperature_may_fire` when a hot monitor passes its
      threshold;
    * :attr:`diverged` at the depth bound and when the execution ends.

    The last three answer for replay: :class:`ReplayStrategy` overrides
    them, every other strategy keeps the defaults.
    """

    name = "abstract"
    #: Whether the execution left a recorded schedule (replay only).
    diverged = False
    #: ``None``, or a callable that returns the next recorded fault
    #: outcome code: the runtime then re-fires it instead of asking
    #: :meth:`pick_fault` (replay only).
    next_fault_outcome: Optional[Callable[[], int]] = None

    def temperature_may_fire(self) -> bool:
        """Whether a hot monitor past its threshold is reported now."""
        return True

    @abstractmethod
    def prepare_iteration(self) -> bool:
        """Return False when the search space is exhausted."""

    @abstractmethod
    def pick_machine(
        self, enabled: Sequence[MachineId], current: Optional[MachineId]
    ) -> MachineId:
        """Choose the next machine to run among the enabled ones.

        ``enabled`` is the runtime's own list, not a copy: a strategy
        reads it during the call and never keeps or changes it (copy
        what must outlive the call, as the DFS frames do)."""

    @abstractmethod
    def pick_bool(self) -> bool:
        ...

    @abstractmethod
    def pick_int(self, bound: int) -> int:
        ...

    def observe_forced(self, choice: MachineId) -> None:
        """Notification of a *forced* scheduling decision (exactly one
        machine enabled).  The runtime does not consult the strategy at
        such points — there is nothing to decide and no branch to explore
        — but still records the decision in the trace.  Strategies that
        track position in a recorded decision sequence (replay) override
        this to stay aligned, and step-indexed strategies (PCT,
        delay-bounding) override it to keep counting forced points as
        steps so their perturbation-point semantics are unchanged.
        Branching-only strategies (DFS, random) need not care, since a
        one-option node never branches.
        """

    def attach_reduction(self, engine) -> None:
        """Offer the strategy a :class:`repro.testing.reduction
        .ReductionEngine` (or ``None``) for the current campaign loop.
        Called by :func:`repro.testing.engine.run_campaign` before the
        first iteration of every campaign loop — a strategy reused across
        campaigns is attached again, so implementations must simply
        replace any previous attachment.

        Reduction is an argument about depth-first order: only the DFS
        family accepts an engine.  Everywhere else a state the walk
        passed through would be cached as an explored subtree, so any
        active mode is refused here, before anything runs."""
        if engine is not None:
            raise PSharpError(
                f"reduction {engine.mode!r} needs a DFS-family strategy "
                f"(dfs, iddfs), not {self.name!r}; run it with "
                "reduction='none'"
            )

    def pick_fault(self, weight: int) -> bool:
        """Decide whether a candidate fault fires at this consultation
        point.  ``weight`` is an integer permille probability in
        ``[0, FAULT_SCALE]`` (see :mod:`repro.testing.faults`).

        The default draws through :meth:`pick_int`, which is correct for
        every randomized strategy (one seeded RNG consumption per
        consult, reproducible per seed).  Systematic strategies override
        this — a fault is a two-way branch, not a ``FAULT_SCALE``-way
        one.  The runtime, not the strategy, records the resulting fault
        outcome in the trace.
        """
        return weight > 0 and self.pick_int(FAULT_SCALE) < weight

    def is_fair(self) -> bool:
        """Whether long executions remain meaningful under this strategy."""
        return False


class _Frame:
    """One choice point on the DFS stack: a machine, value or fault choice.

    ``values`` are the frame's branches and ``pos`` the one being
    explored; ``values[:pos+1]`` is the frame's sleep set (a branch
    explored or already queued here is never re-added).  A machine choice
    keeps ``enabled``, the machine values enabled at that point: the
    branches themselves without DPOR, and under DPOR what backtrack
    insertion may add (the racer when it was enabled here, else all of
    them) and what the frame counts as pruned when it pops.  A value or
    fault choice has ``enabled`` None and ``values`` ``range(options)``.
    """

    __slots__ = ("values", "enabled", "pos")

    def __init__(self, values: Sequence[int], enabled: Optional[tuple] = None) -> None:
        self.values = values
        self.enabled = enabled
        self.pos = 0


class DfsStrategy(SchedulingStrategy):
    """Systematic depth-first exploration of the schedule tree.

    "Each node is a schedule prefix and the branches are the enabled
    machines in the program state reached by the schedule prefix"
    (Section 6.2).  Nondeterministic boolean/integer choices made by
    machines, and injected faults, are explored systematically as well —
    the limitation the paper notes for machines that model
    nondeterministic environments.  Every kind of choice point is one
    :class:`_Frame` on one stack, advanced by one backtrack rule.

    With a reduction engine attached (:meth:`attach_reduction`), a
    machine frame starts with the one branch taken and grows by the
    engine's race analysis (dynamic partial-order reduction); value and
    fault frames stay exhaustive.  The stack also tells the engine where
    an iteration's replayed prefix ends — the frame
    :meth:`prepare_iteration` advanced, always the top one — so its state
    cache is consulted only past it.
    """

    name = "dfs"

    def __init__(self, max_depth: int = 100_000) -> None:
        self._stack: List[_Frame] = []
        self._cursor = 0
        self._started = False
        self._max_depth = max_depth
        # True once any execution ran past the depth cap: the exploration
        # below the cap is then incomplete (iterative deepening keys off
        # this to decide whether deepening can uncover anything new).
        self.depth_cap_hit = False
        # The reduction engine whose race analysis grows machine frames,
        # armed by attach_reduction().
        self._dpor = None

    def attach_reduction(self, engine) -> None:
        self._dpor = engine

    def prepare_iteration(self) -> bool:
        dpor = self._dpor
        if not self._started:
            # A fresh search: no prefix to replay, the cache is live from
            # the first point.
            self._started = True
            self._cursor = 0
            if dpor is not None:
                dpor.diverged = True
            return True
        if dpor is not None:
            # Mine the execution that just finished for races and insert
            # backtrack branches into the still-standing frames *before*
            # unwinding them.
            dpor.analyze(self._add_backtrack)
        # Backtrack: drop the exhausted suffix, advance the deepest frame
        # that still has a branch to explore.
        stack = self._stack
        while stack:
            top = stack[-1]
            if top.pos < len(top.values) - 1:
                top.pos += 1
                self._cursor = 0
                if dpor is not None:
                    # Dark until the decision at ``top`` is taken: the
                    # frames below it replay the previous schedule.
                    dpor.diverged = False
                return True
            if dpor is not None and top.enabled is not None:
                dpor.count_skipped(len(top.enabled) - len(top.values))
            stack.pop()
        return False

    def _add_backtrack(self, depth: int, value: int) -> None:
        """DPOR callback: make the machine frame at ``depth`` explore
        ``value`` if it was enabled there, else every machine that was."""
        frame = self._stack[depth]
        values = frame.values
        if value in frame.enabled:
            if value not in values:
                values.append(value)
        else:
            for v in frame.enabled:
                if v not in values:
                    values.append(v)

    def _choose(self, options: int) -> int:
        if options <= 0:
            raise ValueError("no options to choose from")
        cursor = self._cursor
        self._cursor = cursor + 1
        if cursor >= self._max_depth:
            # Beyond the depth cap the search degenerates to "first branch";
            # the runtime's step bound terminates such runs.
            self.depth_cap_hit = True
            return 0
        stack = self._stack
        if cursor == len(stack):
            stack.append(_Frame(range(options)))
            return 0
        if cursor == len(stack) - 1 and self._dpor is not None:
            self._dpor.diverged = True  # the advanced frame: prefix ends
        frame = stack[cursor]
        if frame.enabled is not None:
            return 0  # divergence guard: a machine choice was here
        # The schedule prefix replays deterministically, so the branching
        # factor matches what was recorded; min() guards divergence.
        return min(frame.pos, options - 1)

    def pick_machine(
        self, enabled: Sequence[MachineId], current: Optional[MachineId]
    ) -> MachineId:
        cursor = self._cursor
        self._cursor = cursor + 1
        if cursor >= self._max_depth:
            self.depth_cap_hit = True
            return enabled[0]
        stack = self._stack
        dpor = self._dpor
        if cursor == len(stack):
            values = tuple(map(_MID_VALUE, enabled))
            frame = _Frame(values if dpor is None else [values[0]], values)
            stack.append(frame)
        else:
            if cursor == len(stack) - 1 and dpor is not None:
                dpor.diverged = True  # the advanced frame: prefix ends
            frame = stack[cursor]
            if frame.enabled is None:
                # Divergence guard: a value choice was here.
                return enabled[min(frame.pos, len(enabled) - 1)]
        if dpor is not None:
            dpor.bind_frame(cursor)
            if len(frame.values) == 1:
                dpor.forced += 1
        value = frame.values[frame.pos]
        for mid in enabled:
            if mid.value == value:
                return mid
        return enabled[0]  # divergence guard

    def pick_bool(self) -> bool:
        return bool(self._choose(2))

    def pick_int(self, bound: int) -> int:
        return self._choose(bound)

    def pick_fault(self, weight: int) -> bool:
        # Systematic exploration ignores the probability: a fault point is
        # a two-way branch, and the fault-free branch (index 0) is
        # explored first so the failure-free schedule space is covered
        # before failures are layered in.
        return weight > 0 and bool(self._choose(2))


class IterativeDeepeningDfsStrategy(DfsStrategy):
    """Iterative-deepening DFS: restart the systematic search with a
    geometrically growing depth cap.

    Shallow bugs are found with DFS's exhaustiveness but without first
    drowning in the deep subtrees a plain DFS would enumerate — the
    classic IDDFS trade, here applied to the schedule tree.  Deepening
    stops once a full pass never hits the cap (the tree is finite and
    fully explored) or the cap reaches ``max_depth``.  A pass is the
    plain DFS search; deepening clears its stack, raises the cap, and
    resets the reduction engine's search in this one place.
    """

    name = "iddfs"

    def __init__(
        self, initial_depth: int = 8, factor: int = 2, max_depth: int = 100_000
    ) -> None:
        if initial_depth < 1 or factor < 2:
            raise ValueError("initial_depth must be >= 1 and factor >= 2")
        super().__init__(max_depth=initial_depth)
        self._factor = factor
        self._depth_limit = max_depth
        self.depth = initial_depth

    def prepare_iteration(self) -> bool:
        if super().prepare_iteration():
            return True
        if not self.depth_cap_hit or self.depth >= self._depth_limit:
            return False
        self.depth = self._max_depth = min(self.depth * self._factor, self._depth_limit)
        self._stack.clear()
        self._started = False
        self.depth_cap_hit = False
        if self._dpor is not None:
            # The deepened pass re-explores the whole tree from scratch;
            # states cached by the shallower pass would prune it to
            # nothing.
            self._dpor.reset_search()
        return super().prepare_iteration()


class _SeededStrategy(SchedulingStrategy):
    """What the randomized strategies share: one ``random.Random``
    reseeded per iteration, and the value draws, each in one frame."""

    def __init__(self, seed: Optional[int] = None) -> None:
        self._seed = seed if seed is not None else random.randrange(2**31)
        self._iteration = -1
        self._rng = random.Random(self._seed)

    def _reseed(self) -> None:
        # Reseed deterministically per iteration (equivalent to a fresh
        # ``random.Random(seed)`` but without the allocation): iteration k
        # of a seeded run is reproducible in isolation.
        self._iteration += 1
        self._rng.seed(self._seed * 1_000_003 + self._iteration)

    def pick_bool(self) -> bool:
        return bool(self._rng.getrandbits(1))

    def pick_int(self, bound: int) -> int:
        # ``self._rng.randrange(bound)`` without its two Python frames:
        # the same rejection sampling over the same ``getrandbits`` draws,
        # so a seed's schedules are what they were (tests/
        # test_step_budget.py holds values and generator state equal).
        if bound <= 0:
            raise ValueError("empty range for pick_int()")
        getrandbits = self._rng.getrandbits
        bits = bound.bit_length()
        value = getrandbits(bits)
        while value >= bound:
            value = getrandbits(bits)
        return value

    def pick_fault(self, weight: int) -> bool:
        # ``pick_int(FAULT_SCALE) < weight``, drawn in this frame.
        if weight <= 0:
            return False
        getrandbits = self._rng.getrandbits
        value = getrandbits(_FAULT_BITS)
        while value >= FAULT_SCALE:
            value = getrandbits(_FAULT_BITS)
        return value < weight


class RandomStrategy(_SeededStrategy):
    """"The random scheduler chooses a random machine to execute after each
    send and does not keep track of already explored schedules.  Thus,
    random machine choices do not need to be controlled" (Section 6.2)."""

    name = "random"

    def prepare_iteration(self) -> bool:
        self._reseed()
        return True

    def pick_machine(
        self, enabled: Sequence[MachineId], current: Optional[MachineId]
    ) -> MachineId:
        # int(random() * n) instead of randrange(n): one C call on the
        # hottest strategy path; the 2^-53 float bias is irrelevant at
        # enabled-set sizes.
        return enabled[int(self._rng.random() * len(enabled))]

    def is_fair(self) -> bool:
        return True


class FairRandomStrategy(_SeededStrategy):
    """A round-robin-biased random walk that satisfies :meth:`is_fair`.

    At every decision the strategy flips a (seeded) coin: with probability
    ``bias`` it runs the *least recently scheduled* enabled machine (the
    round-robin component that bounds how long any enabled machine can
    starve), otherwise it picks uniformly at random (the exploration
    component).  Plain random scheduling is fair with probability 1 but
    its starvation horizon grows with the machine count; the round-robin
    bias keeps the horizon short enough for tight liveness-monitor
    temperature thresholds to be meaningful (Section 7.2's fair schedules
    for hot/cold liveness detection).
    """

    name = "fair-random"

    def __init__(self, seed: Optional[int] = None, bias: float = 0.5) -> None:
        if not 0.0 <= bias <= 1.0:
            raise ValueError(f"bias must be in [0, 1], got {bias}")
        super().__init__(seed)
        self._bias = bias
        self._last_run: dict = {}  # machine id value -> step it last ran
        self._step = 0

    def prepare_iteration(self) -> bool:
        self._reseed()
        self._last_run = {}
        self._step = 0
        return True

    def observe_forced(self, choice: MachineId) -> None:
        # Forced points count as steps and as "the machine ran", so the
        # round-robin ordering reflects actual execution recency whether
        # or not the runtime's forced-decision fast path fired.
        self._step += 1
        self._last_run[choice.value] = self._step

    def pick_machine(
        self, enabled: Sequence[MachineId], current: Optional[MachineId]
    ) -> MachineId:
        self._step += 1
        if self._rng.random() < self._bias:
            # Least recently run; never-scheduled machines (-1) win and
            # ties break on id, keeping the choice deterministic for a
            # fixed seed.
            last_run = self._last_run.get
            choice = enabled[0]
            oldest = (last_run(choice.value, -1), choice.value)
            for mid in enabled:
                ran = (last_run(mid.value, -1), mid.value)
                if ran < oldest:
                    choice, oldest = mid, ran
        else:
            choice = enabled[int(self._rng.random() * len(enabled))]
        self._last_run[choice.value] = self._step
        return choice

    def is_fair(self) -> bool:
        return True


class ReplayStrategy(SchedulingStrategy):
    """Deterministically replays a recorded :class:`ScheduleTrace`.

    Once the trace is exhausted (e.g. when replaying a prefix), falls back
    to the first enabled machine so that the execution still terminates.

    Monitor-invocation entries (kind ``"monitor"``), temperature firings
    (kind ``"liveness"``) and reduction cutoffs (kind ``"reduction"``)
    are runtime-recorded observations, not strategy decisions; they are
    filtered out here and re-recorded deterministically by the replaying
    runtime — the liveness marker's presence additionally tells the
    runtime whether (and that only at the recorded end) a temperature bug
    should fire during this replay.
    """

    name = "replay"

    def __init__(self, trace: ScheduleTrace) -> None:
        # The recorded decisions as packed codes (``value << 3 | tag``),
        # observations dropped and the liveness marker noted in one pass.
        codes: List[int] = []
        liveness = False
        for code in trace._codes:
            tag = code & 7
            if tag == LIVENESS_TAG:
                liveness = True
            elif tag != MONITOR_TAG and tag != REDUCTION_TAG:
                codes.append(code)
        self._codes = codes
        self._liveness_recorded = liveness
        self._pos = 0
        self._ran = False

    def prepare_iteration(self) -> bool:
        if self._ran:
            return False
        self._ran = True
        self._pos = 0
        self.diverged = False
        return True

    def _next(self, tag: int) -> Optional[int]:
        """The next recorded value if it is a decision of kind ``tag``;
        otherwise the replay has diverged, and None."""
        pos = self._pos
        if pos < len(self._codes):
            code = self._codes[pos]
            if code & 7 == tag:
                self._pos = pos + 1
                return code >> 3
        self.diverged = True
        return None

    def observe_forced(self, choice: MachineId) -> None:
        # Forced decisions are recorded in traces; consume the matching
        # entry so subsequent real choices stay aligned with the record.
        value = self._next(SCHED_TAG)
        if value is not None and value != choice.value:
            self.diverged = True

    def pick_machine(
        self, enabled: Sequence[MachineId], current: Optional[MachineId]
    ) -> MachineId:
        value = self._next(SCHED_TAG)
        if value is not None:
            for mid in enabled:
                if mid.value == value:
                    return mid
            self.diverged = True
        return enabled[0]

    def pick_bool(self) -> bool:
        value = self._next(BOOL_TAG)
        return bool(value) if value is not None else False

    def pick_int(self, bound: int) -> int:
        value = self._next(INT_TAG)
        if value is None:
            return 0
        if value >= bound:
            self.diverged = True  # recorded under a wider bound
            return 0
        return value

    def pick_fault(self, weight: int) -> bool:
        """Replay never *invents* faults; recorded fault outcomes are
        re-fired via :meth:`next_fault_outcome` instead, so a direct
        probability consult always declines."""
        return False

    def next_fault_outcome(self) -> int:
        """Consume the next recorded fault decision and return its
        outcome code (0 when the trace is exhausted or diverged — replay
        falls back to the fault-free behavior rather than guessing)."""
        value = self._next(FAULT_TAG)
        return value if value is not None else 0

    def is_fair(self) -> bool:
        """Replay preserves the recorded schedule exactly, so liveness
        temperature checks stay armed: a monitor-reported liveness bug
        found under a fair strategy reproduces under replay."""
        return True

    def temperature_may_fire(self) -> bool:
        """Whether the runtime may fire a temperature liveness bug *now*.

        Only once the recorded decisions are exhausted, and only when the
        recorded run itself ended in a temperature firing (the trace's
        ``"liveness"`` marker).  Decisions past the would-fire point — or
        a trace with no marker at all — prove the recorded run survived
        its hot stretches (unfair exploration, or the monitor cooled, or
        the bug was something else entirely), so replay defers to the
        recorded schedule instead of racing it to a different bug."""
        return self._liveness_recorded and self._pos >= len(self._codes)


class PctStrategy(_SeededStrategy):
    """Probabilistic concurrency testing (Burckhardt et al. [4]).

    Machines get random priorities; the highest-priority enabled machine
    runs.  At ``depth - 1`` randomly chosen steps the currently running
    machine's priority is dropped below all others.  Provides probabilistic
    bug-finding guarantees for bugs of bounded depth.
    """

    name = "pct"

    def __init__(
        self, seed: Optional[int] = None, depth: int = 3, max_steps: int = 5_000
    ) -> None:
        super().__init__(seed)
        self._depth = depth
        self._max_steps = max_steps
        self._priorities: dict = {}  # machine id value -> priority
        self._change_points: set = set()
        self._step = 0
        # Change points are sampled from the observed execution length of
        # the previous iteration, so short programs still see them.
        self._horizon = 32

    def prepare_iteration(self) -> bool:
        self._horizon = max(self._horizon, self._step, 2)
        self._reseed()
        self._priorities = {}
        self._step = 0
        horizon = min(self._horizon, self._max_steps)
        if self._depth > 1:
            self._change_points = set(
                self._rng.sample(
                    range(1, horizon + 1), min(self._depth - 1, horizon)
                )
            )
        else:
            self._change_points = set()
        return True

    def observe_forced(self, choice: MachineId) -> None:
        # A forced point is still a step: change points may land on it
        # (deprioritizing the sole runnable machine for *later*
        # decisions), exactly as picking from a one-element enabled set
        # did before the runtime grew the forced-decision fast path.
        self._step += 1
        priorities = self._priorities
        if choice.value not in priorities:
            priorities[choice.value] = self._rng.random() + 1.0
        if self._step in self._change_points:
            priorities[choice.value] = self._rng.random() * 1e-6

    def pick_machine(
        self, enabled: Sequence[MachineId], current: Optional[MachineId]
    ) -> MachineId:
        self._step += 1
        priorities = self._priorities
        changing = self._step in self._change_points
        while True:
            # The enabled machine of highest priority; a machine draws
            # its priority the first time it is looked at.
            best = None
            best_priority = -1.0
            for mid in enabled:
                priority = priorities.get(mid.value)
                if priority is None:
                    priority = priorities[mid.value] = self._rng.random() + 1.0
                if priority > best_priority:
                    best, best_priority = mid, priority
            if not changing:
                return best
            # Deprioritize the would-be winner below every other machine
            # and look again.
            priorities[best.value] = self._rng.random() * 1e-6
            changing = False


class DelayBoundingStrategy(_SeededStrategy):
    """Randomized delay-bounded scheduling (Emmi et al. [9], randomized as
    in Thomson et al. [25]).

    A deterministic round-robin scheduler is perturbed by up to ``delays``
    delay operations, inserted at randomly chosen scheduling points; each
    delay skips the machine the deterministic scheduler would have run.
    """

    name = "delay-bounding"

    def __init__(
        self, seed: Optional[int] = None, delays: int = 2, max_steps: int = 5_000
    ) -> None:
        super().__init__(seed)
        self._delays = delays
        self._max_steps = max_steps
        self._delay_points: set = set()
        self._step = 0
        # Like PCT, delay points are sampled within the observed execution
        # length so they actually land inside short runs.
        self._horizon = 32

    def prepare_iteration(self) -> bool:
        self._horizon = max(self._horizon, self._step, 2)
        self._reseed()
        self._step = 0
        horizon = min(self._horizon, self._max_steps)
        count = self._rng.randint(0, min(self._delays, horizon))
        self._delay_points = set(
            self._rng.sample(range(1, horizon + 1), count)
        ) if count else set()
        return True

    def observe_forced(self, choice: MachineId) -> None:
        # Forced points count as steps so delay-point indices mean the
        # same thing they did before the fast path; a delay landing on a
        # one-machine step is a no-op, as it always was.
        self._step += 1

    def pick_machine(
        self, enabled: Sequence[MachineId], current: Optional[MachineId]
    ) -> MachineId:
        self._step += 1
        # Deterministic base order: keep running `current` if enabled,
        # else lowest id.
        ordered = sorted(enabled, key=_MID_VALUE)
        index = 0
        if current is not None:
            at = bisect_left(ordered, current.value, key=_MID_VALUE)
            if at < len(ordered) and ordered[at].value == current.value:
                index = at
        if self._step in self._delay_points and len(ordered) > 1:
            index = (index + 1) % len(ordered)
        return ordered[index]
