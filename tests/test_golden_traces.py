"""Bit-identical traces per seed, pinned across commits.

The parity tests elsewhere compare one carrier against the other *at one
commit*; a change that moves both carriers the same way passes them all.
``golden_traces.json`` holds what a fixed set of small campaigns produced
when it was generated — schedule, step and scheduling-point counts, the
first bug's iteration and trace fingerprint, and the exhaustive-sweep
counters per reduction mode — and this module asserts them on the
inline carrier and on ``ThreadedRuntime``.  Its ``portfolio`` section does the same for three
sharded ``Campaign.portfolio()`` campaigns (per-shard counts and
bug-trace fingerprints, the merged distinct-bug set), asserted under the
``fork`` and ``spawn`` start methods; it was written by the
process-per-spec supervisor the fleet coordinator replaced.  A refactor
of the runtime or of the sharding supervisor must leave the file
byte-for-byte unchanged.

Regenerate (only when a trace change is intended, and say so in the PR)::

    PYTHONPATH=src python -c "from tests.test_golden_traces import write; write()"
"""

import json
import os

import pytest

from repro.bench import registry
from repro.testing import (
    REDUCTION_MODES, Campaign, FaultConfig, StrategySpec, TestConfig,
    ThreadedRuntime,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_traces.json")

STRATEGIES = ("random", "pct", "fair-random", "delay-bounding", "dfs")
SEED = 20150613
BUDGET = dict(
    max_iterations=25, max_steps=600, max_hot_steps=150, time_limit=None,
    stop_on_first_bug=False,
)
SWEEP = dict(
    program="BoundedAsync", strategy=("dfs", {"max_depth": 8}),
    max_iterations=1_000_000, max_steps=2_000, time_limit=None,
    stop_on_first_bug=False,
)
#: ``runtime_factory`` per carrier: the inline one, then the threaded one.
CARRIERS = (None, ThreadedRuntime)
#: Sharded campaigns, every shard run to its full iteration budget.
PORTFOLIOS = {
    "Raft/2xrandom": dict(
        program="Raft",
        specs=(
            StrategySpec("random", {"seed": SEED}),
            StrategySpec("random", {"seed": SEED + 1}),
        ),
    ),
    "BoundedAsync/default-4": dict(
        program="BoundedAsync", seed=7, portfolio_workers=4,
    ),
    "German/3-spec+faults": dict(
        program="German",
        specs=(
            StrategySpec("random", {"seed": SEED}),
            StrategySpec("pct", {"depth": 10, "seed": SEED}),
            StrategySpec("delay-bounding", {"delays": 2, "seed": SEED}),
        ),
        faults=FaultConfig(drop=0.05, duplicate=0.05, delay=0.1, crash=0.01),
    ),
}
START_METHODS = ("fork", "spawn")


def programs():
    """Every registry program with a buggy variant (the fault-enabled
    ones run with their registry faults and monitors)."""
    return [b.name for b in registry.all_benchmarks() if b.buggy is not None]


def campaign_row(program, strategy, factory=None):
    report = Campaign(
        TestConfig(program=program, strategy=strategy, seed=SEED,
                   runtime_factory=factory, **BUDGET)
    ).run()
    bug = report.first_bug
    return [
        report.iterations,
        report.total_steps,
        report.total_scheduling_points,
        report.first_bug_iteration,
        bug.trace.fingerprint() if bug is not None else None,
    ]


def sweep_row(reduction, factory=None):
    report = Campaign(
        TestConfig(reduction=reduction, runtime_factory=factory, **SWEEP)
    ).run()
    assert report.exhausted
    return [report.iterations, report.distinct_states, report.schedules_pruned]


def portfolio_row(name, start_method=None):
    report = Campaign(
        TestConfig(start_method=start_method, **PORTFOLIOS[name], **BUDGET)
    ).portfolio()
    return {
        "shards": [
            [
                shard.strategy,
                shard.iterations,
                shard.total_steps,
                shard.total_scheduling_points,
                sorted(bug.trace.fingerprint() for bug in shard.bugs),
            ]
            for shard in report.sub_reports
        ],
        "distinct_bugs": sorted(bug.trace.fingerprint() for bug in report.bugs),
    }


def generate():
    """The golden document, computed from scratch on the inline carrier."""
    return {
        "campaigns": {
            f"{program}/{strategy}": campaign_row(program, strategy)
            for program in programs()
            for strategy in STRATEGIES
        },
        "sweeps": {
            reduction: sweep_row(reduction)
            for reduction in REDUCTION_MODES
        },
        "portfolio": {name: portfolio_row(name) for name in PORTFOLIOS},
    }


def write(path=GOLDEN_PATH):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(generate(), fh, indent=1, sort_keys=True)
        fh.write("\n")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_file_covers_the_registry(golden):
    assert sorted(golden["campaigns"]) == sorted(
        f"{program}/{strategy}" for program in programs() for strategy in STRATEGIES
    )
    assert len(programs()) == 13
    assert sorted(golden["sweeps"]) == sorted(REDUCTION_MODES)
    # The file pins bug traces, not only clean runs.
    found = [row for row in golden["campaigns"].values() if row[4] is not None]
    assert len(found) >= len(programs())
    assert sorted(golden["portfolio"]) == sorted(PORTFOLIOS)
    assert all(row["distinct_bugs"] for row in golden["portfolio"].values())


@pytest.mark.parametrize("factory", CARRIERS, ids=("inline", "threads"))
@pytest.mark.parametrize("program", programs())
def test_campaign_rows_match_the_golden_file(golden, program, factory):
    for strategy in STRATEGIES:
        key = f"{program}/{strategy}"
        assert campaign_row(program, strategy, factory) == golden["campaigns"][key], key


@pytest.mark.parametrize("factory", CARRIERS, ids=("inline", "threads"))
@pytest.mark.parametrize("reduction", REDUCTION_MODES)
def test_sweep_rows_match_the_golden_file(golden, reduction, factory):
    assert sweep_row(reduction, factory) == golden["sweeps"][reduction]


@pytest.mark.parametrize("start_method", START_METHODS)
@pytest.mark.parametrize("name", sorted(PORTFOLIOS))
def test_portfolio_rows_match_the_golden_file(golden, name, start_method):
    assert portfolio_row(name, start_method) == golden["portfolio"][name]
