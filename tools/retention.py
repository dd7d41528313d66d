#!/usr/bin/env python3
"""Measure what a finished campaign report keeps alive.

``python tools/retention.py`` prints a row per case: the bugs the
report recorded, the bytes it retains once the campaign has returned
(``tracemalloc``, everything the campaign allocated and did not free,
counted with the report still held), those bytes per bug, and the
objects ``gc.collect()`` frees after the report is dropped — what was
held only by reference cycles through it.  A report that is plain data
frees everything on the drop by reference counting, so the last column
is 0.

The cases are the four unreduced DFS reference arms of the benchmark's
``sweep`` workload (to exhaustion, no stop at the first bug) and one
``soak`` program (a fixed-budget random campaign).  Each case runs two
schedules first so that compiling its machine classes is not counted.

A last row prices the reduction engine's bookkeeping while a campaign
runs: the ``sweep`` warm-up's TokenRing campaign (``dfs`` to depth 3,
the default ``max_steps``, two schedules), whose one execution logs
12,501 decisions and as many distinct states.  The ``tracemalloc`` peak
under ``dpor`` less the peak of the same schedule without reduction,
per decision, is the step log's cost; the peak under
``dpor+state-cache`` less the one under ``dpor``, per distinct state, is
the seen-set's.  ``tests/test_reduction_oracle.py`` bounds both.

The whole run takes a few seconds.  The byte counts vary a little with
the interpreter; the bug, decision and state counts and, for a
plain-data report, the freed-object counts do not.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from pathlib import Path
from typing import Any, Dict, Tuple

ROOT = Path(__file__).resolve().parents[1]

#: (case, TestConfig fields): the sweep workload's recall references and
#: one soak program.
CASES: Tuple[Tuple[str, Dict[str, Any]], ...] = tuple(
    (f"dfs:{program}:d{depth}", dict(
        program=program, strategy=("dfs", {"max_depth": depth}),
        max_iterations=1_000_000, max_steps=max_steps,
    ))
    for program, depth, max_steps in (
        ("BoundedAsync", 8, 2_000),
        ("TwoPhaseCommit", 8, 2_000),
        ("TokenRing", 7, 200),
        ("German", 8, 2_000),
    )
) + (
    ("random:BoundedAsync", dict(
        program="BoundedAsync", strategy="random", seed=7,
        max_iterations=150, max_steps=5_000,
    )),
)


def measure(fields: Dict[str, Any]) -> Dict[str, int]:
    """Run one campaign and count what its report retains."""
    from repro import Campaign, TestConfig

    fields = dict(fields, time_limit=None, stop_on_first_bug=False)
    Campaign(TestConfig(**dict(fields, max_iterations=2))).run()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = Campaign(TestConfig(**fields)).run()
        gc.collect()  # garbage the report does not hold
        retained = tracemalloc.get_traced_memory()[0] - before
        bugs = len(report.bugs)
        del report
        freed = gc.collect()
    finally:
        tracemalloc.stop()
    return {"bugs": bugs, "retained": retained, "freed": freed}


#: The sweep warm-up's campaign whose reduction bookkeeping is priced.
REDUCTION_CASE = dict(
    program="TokenRing", strategy=("dfs", {"max_depth": 3}), seed=0,
    max_iterations=2,
)


def _peak(fields: Dict[str, Any]) -> Tuple[Any, int]:
    """A campaign's report and its ``tracemalloc`` peak, in bytes above
    what was allocated when it started."""
    from repro import Campaign, TestConfig

    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = Campaign(TestConfig(**fields)).run()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return report, peak


def reduction_bytes() -> Dict[str, int]:
    """Bytes of reduction bookkeeping per decision (the DPOR step log) and
    per distinct state (the seen-set), from three peaks of one campaign:
    under ``dpor+state-cache``, under ``dpor``, and the schedules ``dpor``
    ran without reduction."""
    from repro import Campaign, TestConfig

    fields = dict(REDUCTION_CASE, time_limit=None, stop_on_first_bug=False)
    Campaign(TestConfig(**dict(fields, max_iterations=1, reduction="dpor"))).run()
    cached, cached_peak = _peak(dict(fields, reduction="dpor+state-cache"))
    logged, logged_peak = _peak(dict(fields, reduction="dpor"))
    _, bare_peak = _peak(dict(fields, reduction="none", max_iterations=logged.iterations))
    decisions = logged.total_scheduling_points
    states = cached.distinct_states
    return {
        "decisions": decisions,
        "states": states,
        "per_decision": (logged_peak - bare_peak) // decisions,
        "per_state": (cached_peak - logged_peak) // states,
    }


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    print(f"{'case':<24} {'bugs':>6} {'retained B':>12} {'B/bug':>8} {'gc freed':>9}")
    for name, fields in CASES:
        row = measure(fields)
        per_bug = row["retained"] // row["bugs"] if row["bugs"] else 0
        print(f"{name:<24} {row['bugs']:>6} {row['retained']:>12} "
              f"{per_bug:>8} {row['freed']:>9}")
    row = reduction_bytes()
    print()
    print(f"{'reduction bookkeeping':<24} {'decisions':>9} {'states':>7} "
          f"{'B/decision':>10} {'B/state':>8}")
    print(f"{'dfs:TokenRing:d3':<24} {row['decisions']:>9} {row['states']:>7} "
          f"{row['per_decision']:>10} {row['per_state']:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
