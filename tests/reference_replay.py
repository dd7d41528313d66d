"""Test-only oracle: the replay strategy that read a trace as
``(kind, value)`` tuples, kept as it was.

Until replay read the trace's packed codes, ``ReplayStrategy`` built its
decision list from ``trace.decisions``, compared string kinds per
decision, and the runtime found its replay-only answers
(``next_fault_outcome``, ``temperature_may_fire``, ``diverged``) by
name.  The class below is that one verbatim but for its name;
``tests/test_strategy_contract.py`` holds the packed-code replay against
it — picks, divergence, the temperature gate and fault outcomes — on
generated traces of all seven kinds (the ``reference_trace.py``
pattern).
"""

from typing import Optional, Sequence

from repro.core.events import MachineId
from repro.testing.strategies import SchedulingStrategy
from repro.testing.trace import BOOL, FAULT, INT, LIVENESS, MONITOR, REDUCTION, SCHED, ScheduleTrace


class ReferenceReplayStrategy(SchedulingStrategy):
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
        self._trace = [
            d
            for d in trace.decisions
            if d[0] != MONITOR and d[0] != LIVENESS and d[0] != REDUCTION
        ]
        self._liveness_recorded = any(
            kind == LIVENESS for kind, _ in trace.decisions
        )
        self._pos = 0
        self._ran = False
        self.diverged = False

    def prepare_iteration(self) -> bool:
        if self._ran:
            return False
        self._ran = True
        self._pos = 0
        self.diverged = False
        return True

    def _next(self, kind: str) -> Optional[int]:
        if self._pos >= len(self._trace):
            self.diverged = True
            return None
        recorded_kind, value = self._trace[self._pos]
        if recorded_kind != kind:
            self.diverged = True
            return None
        self._pos += 1
        return value

    def observe_forced(self, choice: MachineId) -> None:
        # Forced decisions are recorded in traces; consume the matching
        # entry so subsequent real choices stay aligned with the record.
        value = self._next(SCHED)
        if value is not None and value != choice.value:
            self.diverged = True

    def pick_machine(
        self, enabled: Sequence[MachineId], current: Optional[MachineId]
    ) -> MachineId:
        value = self._next(SCHED)
        if value is not None:
            for mid in enabled:
                if mid.value == value:
                    return mid
            self.diverged = True
        return enabled[0]

    def pick_bool(self) -> bool:
        value = self._next(BOOL)
        return bool(value) if value is not None else False

    def pick_int(self, bound: int) -> int:
        value = self._next(INT)
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
        value = self._next(FAULT)
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
        return self._liveness_recorded and self._pos >= len(self._trace)

