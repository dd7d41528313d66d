"""A finished campaign report is plain data, gated on exact counts.

A campaign records every bug in its wire form (``BugReport.detached()``)
the moment it takes it, and its runtime lets go of the last execution
when the campaign ends.  So nothing a report references is live — no
frame, traceback, exception, generator, machine or runtime — and
dropping a report leaves no reference cycle for ``gc.collect()`` to
free.  ``ExecutionResult.bug``, what ``runtime.execute`` and replay
return, is the one live form of a bug.  ``tools/retention.py`` measures
the bytes this keeps from being pinned.

The carriers with an OS thread per machine (``ThreadedRuntime``, CHESS)
are in the table too: each thread closes its machine's body on the way
out, and CHESS's bound dequeue hook lives from ``reset()`` to ``close()``.
(A machine thread that outlives its execution taints its runtime and
keeps it reachable by design; no configuration here has one.)
"""

import gc
import types

import pytest

from repro import Campaign, TestConfig
from repro.chess import ChessRuntime
from repro.core.machine import Machine
from repro.testing.engine import TestReport
from repro.testing.runtime import BugFindingRuntime
from repro.testing.threads import ThreadedRuntime

#: Configurations, each finding at least one bug: inline unless they name
#: a threaded carrier.
CONFIGS = {
    "random": dict(program="BoundedAsync", strategy="random", max_iterations=20),
    "pct": dict(program="BoundedAsync", strategy="pct,depth=3", max_iterations=20),
    "fair-random": dict(program="TokenRing", strategy="fair-random", seed=1,
                        max_iterations=4),
    "delay-bounding": dict(program="TwoPhaseCommit",
                           strategy="delay-bounding,delays=2", max_iterations=40),
    "dfs": dict(program="BoundedAsync", strategy="dfs,max_depth=5"),
    "dfs+dpor": dict(program="BoundedAsync", strategy="dfs,max_depth=5",
                     reduction="dpor"),
    "dfs+dpor+state-cache": dict(program="BoundedAsync", strategy="dfs,max_depth=5",
                                 reduction="dpor+state-cache"),
    "send-faults": dict(program="RaftLossy", strategy="random", max_iterations=20),
    "crash-faults": dict(program="TwoPhaseCommitCrash", strategy="random",
                         max_iterations=40),
    "coverage+events": dict(program="Raft", strategy="pct,depth=3",
                            max_iterations=100, coverage=True),
    "threads": dict(program="TwoPhaseCommitCrash", strategy="random",
                    max_iterations=40, runtime_factory=ThreadedRuntime),
    "chess": dict(program="BoundedAsync", strategy="random", seed=3,
                  max_iterations=230, runtime_factory=ChessRuntime),
}

#: What no finished report may reach.
LIVE = (
    types.FrameType, types.TracebackType, BaseException, types.GeneratorType,
    types.FunctionType, types.MethodType, types.ModuleType,
    Machine, BugFindingRuntime,
)


def config(name, tmp_path):
    fields = dict(
        seed=7, max_iterations=1_000_000, time_limit=None, max_steps=5_000,
        stop_on_first_bug=False,
    )
    fields.update(CONFIGS[name])
    if fields.get("coverage"):
        fields["events_path"] = str(tmp_path / "events.jsonl")
    return TestConfig(**fields)


def campaign(name, tmp_path):
    report = Campaign(config(name, tmp_path)).run()
    assert report.bugs and report.first_bug is not None
    return report


def live_objects(root):
    """Every object of a :data:`LIVE` type reachable from ``root``
    (classes are not followed: they reach everything)."""
    seen, found, todo = {id(root)}, [], [root]
    while todo:
        obj = todo.pop()
        if isinstance(obj, LIVE):
            found.append(obj)
            continue
        for referent in gc.get_referents(obj):
            if not isinstance(referent, type) and id(referent) not in seen:
                seen.add(id(referent))
                todo.append(referent)
    return found


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_a_campaign_leaves_no_cyclic_garbage(name, tmp_path):
    # Parsing a config and compiling a program's machine classes leave
    # some (ast's closures): not the campaign's, so collected before it —
    # until a pass frees nothing, since what an earlier test left may
    # become collectable only once a first pass has freed its owners.
    game = Campaign(config(name, tmp_path))
    Campaign(game.config.with_overrides(max_iterations=2)).run()
    while gc.collect():
        pass
    gc.disable()  # so that what the campaign leaves is all still there
    try:
        report = game.run()
    finally:
        gc.enable()
    assert report.bugs
    # The runtime let go of the last execution, the loop of its result...
    assert gc.collect() == 0
    # ...and nothing the report holds is in a cycle with it.
    game.last_report = None
    del report
    assert gc.collect() == 0


@pytest.mark.parametrize("name", ["random", "dfs", "send-faults", "coverage+events"])
def test_nothing_live_is_reachable_from_a_report(name, tmp_path):
    report = campaign(name, tmp_path)
    assert live_objects(report) == []
    for bug in (report.first_bug, *report.bugs):
        assert bug.exception is None and type(bug.machine) is str


def test_an_in_process_report_is_its_own_document(tmp_path):
    report = campaign("coverage+events", tmp_path)
    assert TestReport.decode(report.encode()) == report


def test_the_execution_result_keeps_the_live_bug(tmp_path):
    config = TestConfig(program="BoundedAsync", seed=7, max_iterations=20,
                        time_limit=None)
    game = Campaign(config)
    recorded = game.run().first_bug
    result = game.replay()
    assert result.bug.kind == recorded.kind and result.bug.step == recorded.step
    assert isinstance(result.bug.exception, BaseException)
    assert isinstance(result.bug.machine, Machine)
    assert str(result.bug.machine) == recorded.machine
    assert recorded.exception is None
