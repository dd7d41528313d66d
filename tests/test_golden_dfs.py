"""Systematic exploration, pinned across commits.

``golden_dfs.json`` holds what exhaustive DFS-family campaigns explored
when it was generated: ``dfs`` on BoundedAsync (depth 8), German (depth
8), TwoPhaseCommit (depth 6) and TwoPhaseCommitCrash (depth 6, whose
registry crash faults add fault choice points), and ``iddfs`` from depth
2 to 8 on BoundedAsync, each under every reduction mode, to exhaustion.
Per campaign: schedules, consulted decisions (``telemetry.consulted``),
``distinct_states``, ``schedules_pruned``, the distinct-bug count, and a
SHA-256 over every execution's trace fingerprint in the order they ran —
so a change to the DFS stack, the DPOR backtrack rule, iterative
deepening or the fault consultation that moves one schedule anywhere in
the tree turns it red.

It also pins what the reduction loses under a depth bound today
(German d8, TwoPhaseCommit d6): a fix to that regenerates the file on
purpose, and says so.  And it holds the same campaigns with traces off
to the same tree: whether a trace is recorded must not change what the
state cache prunes.

Regenerate (only when an exploration change is intended)::

    PYTHONPATH=src python -c "from tests.test_golden_dfs import write; write()"
"""

import hashlib
import json
import os

import pytest

from repro.testing import REDUCTION_MODES, BugFindingRuntime, Campaign, TestConfig

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_dfs.json")

CASES = {
    "BoundedAsync/dfs-d8": ("BoundedAsync", "dfs,max_depth=8"),
    "German/dfs-d8": ("German", "dfs,max_depth=8"),
    "TwoPhaseCommit/dfs-d6": ("TwoPhaseCommit", "dfs,max_depth=6"),
    "TwoPhaseCommitCrash/dfs-d6": ("TwoPhaseCommitCrash", "dfs,max_depth=6"),
    "BoundedAsync/iddfs-2-8": ("BoundedAsync", "iddfs,initial_depth=2,max_depth=8"),
}


class _TraceLog(BugFindingRuntime):
    """BugFindingRuntime that folds every execution's trace fingerprint
    into the digest of the campaign being run."""

    digest = None  # the hash of the campaign being run

    def execute(self, main_cls, payload=None):
        result = super().execute(main_cls, payload)
        _TraceLog.digest.update(result.trace.fingerprint().encode())
        return result


def row(case, reduction):
    program, strategy = CASES[case]
    _TraceLog.digest = digest = hashlib.sha256()
    report = Campaign(TestConfig(
        program=program, strategy=strategy, reduction=reduction,
        max_iterations=1_000_000, max_steps=2_000, time_limit=None,
        stop_on_first_bug=False, runtime_factory=_TraceLog,
    )).run()
    assert report.exhausted
    return [
        report.iterations, report.telemetry.consulted, report.distinct_states,
        report.schedules_pruned, report.distinct_bugs, digest.hexdigest(),
    ]


def generate():
    return {
        f"{case}/{reduction}": row(case, reduction)
        for case in CASES
        for reduction in REDUCTION_MODES
    }


def write(path=GOLDEN_PATH):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(generate(), fh, indent=1, sort_keys=True)
        fh.write("\n")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted(
        f"{case}/{reduction}" for case in CASES for reduction in REDUCTION_MODES
    )
    assert any(entry[4] for entry in golden.values())


@pytest.mark.parametrize("reduction", REDUCTION_MODES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_exploration_matches_the_golden_file(golden, case, reduction):
    assert row(case, reduction) == golden[f"{case}/{reduction}"]


def counters(case, reduction, record_traces):
    program, strategy = CASES[case]
    report = Campaign(TestConfig(
        program=program, strategy=strategy, reduction=reduction,
        max_iterations=1_000_000, max_steps=2_000, time_limit=None,
        stop_on_first_bug=False, record_traces=record_traces,
    )).run()
    assert report.exhausted
    return [
        report.iterations, report.distinct_states, report.schedules_pruned,
        report.fingerprints, report.machine_digests,
    ]


@pytest.mark.parametrize("reduction", ["dpor", "dpor+state-cache"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_traces_off_explores_the_same_tree(case, reduction):
    assert counters(case, reduction, False) == counters(case, reduction, True)
