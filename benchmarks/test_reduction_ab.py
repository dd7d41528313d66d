"""Schedule-space reduction A/B + incremental enabled-set A/B.

Two exact experiments: no wall-clock gate, nothing written to disk (the
repo's benchmark is ``python3 -m benchmarks.perf``):

* **Reduction A/B** — the same exhaustive DFS campaign driven with
  ``reduction="none"``, ``"dpor"`` and ``"dpor+state-cache"``.  Schedule
  counts under DFS exhaustion are *deterministic* (they count tree
  nodes, not wall-clock), so the gates are exact: every arm reports the
  identical distinct-bug set, and DPOR explores at most 0.6x the
  unreduced schedules on every measured benchmark.
* **Enabled-set A/B** — the incremental enabled-set bookkeeping
  (``BugFindingRuntime._schedulable``) against the pre-incremental
  O(#machines) seat walk it replaced, on the two highest-machine-count
  registry protocols (Raft, MultiPaxos), where the walk hurts most.
  Both compute the same enabled set, so the same seed must explore the
  same schedules: the gate is equal step counts and equal bug sets; the
  throughput ratio is printed, not asserted.

Run: ``pytest benchmarks/test_reduction_ab.py -s -m bench``
"""

import os

import pytest

from repro.bench import get
from repro.testing import (
    BugFindingRuntime,
    Campaign,
    DfsStrategy,
    RandomStrategy,
    TestConfig,
)
from repro.testing.runtime import _IDLE, _NEW, _RUNNING

pytestmark = pytest.mark.bench

ITERATIONS = int(os.environ.get("REPRO_BENCH_ITERS", "150"))

#: Exhaustive-DFS reduction fixtures: (benchmark, max_depth, max_steps).
#: Depths are chosen so the unreduced arm exhausts in a few thousand
#: schedules; TokenRing's steps are capped because beyond ``max_depth``
#: the DFS falls back to first-enabled and the ring spins out the
#: default budget.
REDUCTION_CASES = [
    ("BoundedAsync", 8, 2_000),
    ("TwoPhaseCommit", 8, 2_000),
    ("TokenRing", 7, 200),
]
REDUCTION_GATE = 0.6  # reduced schedules <= 0.6x unreduced, per benchmark

#: Enabled-set A/B fixtures: high machine count makes the O(#machines)
#: walk expensive per scheduling point.
ENABLED_SET_BENCHMARKS = ["Raft", "MultiPaxos"]


# ---------------------------------------------------------------------------
# Reduction A/B: same bugs, deterministically fewer schedules
# ---------------------------------------------------------------------------
def _exhaustive(name, depth, max_steps, mode):
    variant = get(name).buggy
    return Campaign(
        TestConfig(
            variant.main,
            variant.payload,
            max_iterations=500_000,
            time_limit=240.0,
            max_steps=max_steps,
            stop_on_first_bug=False,
            workers="inline",
            monitors=tuple(variant.monitors),
            reduction=mode,
        ),
        strategy=DfsStrategy(max_depth=depth),
    ).run()


def test_reduction_ab_ladder(capsys):
    """none -> dpor -> dpor+state-cache on every fixture: identical
    distinct-bug sets, and DPOR clears the 0.6x gate (exact, not a
    timing measurement)."""
    rows = {}
    for name, depth, max_steps in REDUCTION_CASES:
        arms = {}
        for mode in ("none", "dpor", "dpor+state-cache"):
            report = _exhaustive(name, depth, max_steps, mode)
            assert report.exhausted, (
                f"{name} ({mode}) did not exhaust its schedule tree"
            )
            arms[mode] = {
                "schedules": report.iterations,
                "bugs": sorted({(b.kind, b.message) for b in report.bugs}),
                "fingerprints": report.fingerprints,
                "digests": report.machine_digests,
            }
        base, dpor, cached = (
            arms["none"], arms["dpor"], arms["dpor+state-cache"]
        )
        assert dpor["bugs"] == base["bugs"], f"{name}: DPOR changed the bug set"
        assert cached["bugs"] == base["bugs"], (
            f"{name}: state caching changed the bug set"
        )
        assert dpor["schedules"] <= REDUCTION_GATE * base["schedules"], (
            f"{name}: DPOR explored {dpor['schedules']} of "
            f"{base['schedules']} schedules (gate {REDUCTION_GATE}x)"
        )
        assert cached["schedules"] < dpor["schedules"], (
            f"{name}: the state cache did not prune beyond DPOR"
        )
        rows[name] = {
            "arms": arms,
            "dpor_ratio": round(dpor["schedules"] / base["schedules"], 3),
            "cache_ratio": round(cached["schedules"] / base["schedules"], 3),
        }

    with capsys.disabled():
        print()
        for name, row in rows.items():
            arms = row["arms"]
            print(
                f"  {name:16s} none {arms['none']['schedules']:6d}"
                f"  dpor {arms['dpor']['schedules']:6d}"
                f" (x{row['dpor_ratio']:.3f})"
                f"  +cache {arms['dpor+state-cache']['schedules']:6d}"
                f" (x{row['cache_ratio']:.3f},"
                f" {arms['dpor+state-cache']['fingerprints']} fingerprints,"
                f" {arms['dpor+state-cache']['digests']} digests)"
            )


# ---------------------------------------------------------------------------
# Enabled-set A/B: incremental bookkeeping vs the O(#machines) seat walk
# ---------------------------------------------------------------------------
class _WalkRuntime(BugFindingRuntime):
    """The pre-incremental enabled-set computation: a full seat walk with
    dirty-bit memoization at every scheduling point.  The incremental
    bookkeeping stays consistent (``_enabled`` is resynced to the walk's
    verdict, pending wake-ups are consumed) so the idle-entry and halt
    removal paths behave exactly as they do on the real runtime."""

    def _schedulable(self):
        enabled = []
        append = enabled.append
        for worker in self._worker_list:
            state = worker.state
            if state is _RUNNING or state is _NEW:
                append(worker.mid)
            elif state is _IDLE:
                machine = worker.machine
                if machine._inbox_dirty:
                    machine._inbox_dirty = False
                    if not machine._idle_deliverable:
                        machine._idle_deliverable = machine._has_deliverable()
                if machine._idle_deliverable:
                    append(worker.mid)
        self._enabled[:] = enabled
        self._idle_pending.clear()
        return enabled


def _campaign(name, runtime_factory):
    variant = get(name).buggy
    report = Campaign(
        TestConfig(
            variant.main,
            variant.payload,
            max_iterations=ITERATIONS,
            time_limit=120.0,
            max_steps=5_000,
            stop_on_first_bug=False,
            workers="inline",
            runtime_factory=runtime_factory,
        ),
        strategy=RandomStrategy(seed=7),
    ).run()
    assert report.iterations == ITERATIONS
    return report


def test_enabled_set_ab(capsys):
    """Incremental enabled set vs the seat walk on the high-machine-count
    protocols: the same seed explores the same schedules either way."""
    for name in ENABLED_SET_BENCHMARKS:
        walk = _campaign(name, _WalkRuntime)
        incremental = _campaign(name, None)
        assert incremental.total_steps == walk.total_steps, name
        assert (
            {bug.trace.fingerprint() for bug in incremental.bugs}
            == {bug.trace.fingerprint() for bug in walk.bugs}
        ), name
        with capsys.disabled():
            print(
                f"\n  {name:16s} walk {walk.schedules_per_second:8.1f}/s"
                f"  incremental {incremental.schedules_per_second:8.1f}/s"
                f"  ({walk.total_steps} steps each)"
            )
