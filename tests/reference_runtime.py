"""Test-only oracle: the O(#machines) seat walk the incremental enabled
set replaced.

This is the body ``BugFindingRuntime._schedulable_walk`` had, moved here
verbatim (``self`` became ``runtime``).  It derives the enabled set from
scratch — every seat's state, plus an inbox scan for idle seats whose
memo is stale — and is side-effect free (it neither clears dirty bits nor
updates the memo), so ``tests/test_reduction.py`` can call it next to
``BugFindingRuntime._schedulable`` at every scheduling point without
corrupting the invariant the incremental path maintains.
"""

from typing import List

from repro.core.events import MachineId
from repro.testing.runtime import BugFindingRuntime, _WorkerState

_NEW = _WorkerState.NEW
_RUNNING = _WorkerState.RUNNING
_IDLE = _WorkerState.IDLE


def schedulable_walk(runtime: BugFindingRuntime) -> List[MachineId]:
    enabled = []
    append = enabled.append
    for worker in runtime._worker_list:
        state = worker.state
        if state is _RUNNING or state is _NEW:
            append(worker.mid)
        elif state is _IDLE:
            machine = worker.machine
            if machine._inbox_dirty:
                # Deliverability is monotone under enqueue: a
                # standing True memo needs no rescan.
                if machine._idle_deliverable or machine._has_deliverable():
                    append(worker.mid)
            elif machine._idle_deliverable:
                append(worker.mid)
    return enabled
