"""Portfolio smoke coverage over the Table 2 suite.

Table 2's headline metric is schedules per second (#Sch/sec).  Measuring
it is the job of the repo's benchmark (``python3 -m benchmarks.perf``,
workloads ``soak`` and ``shard_large``), not of a pytest gate: tier-1
asserts on no wall clock.  What stays here is exact — a small diverse
portfolio runs on every Table 2 program without deadlocking, and a bug
it finds replays.

Run: ``pytest benchmarks/test_portfolio_throughput.py -m bench``
"""

import pytest

from repro import Campaign, TestConfig
from repro.bench import buggy_main, table2_suite

pytestmark = pytest.mark.bench

BENCH = "TwoPhaseCommit"


def test_table2_suite_has_buggy_variants():
    names = {benchmark.name for benchmark in table2_suite()}
    assert BENCH in names
    assert len(names) == 8


@pytest.mark.parametrize("bench_name", [b.name for b in table2_suite()])
def test_portfolio_finds_table2_bugs_or_runs_clean(bench_name):
    """Smoke coverage: a small diverse portfolio runs on every Table 2
    program without deadlocking; the shallow-bug programs are found."""
    campaign = Campaign(
        TestConfig(
            buggy_main(bench_name),
            portfolio_workers=2,
            seed=13,
            max_iterations=120,
            time_limit=60,
            max_steps=5_000,
        )
    )
    report = campaign.portfolio()
    assert report.iterations > 0
    if report.first_bug is not None:
        replayed = campaign.replay()
        assert replayed is not None and replayed.buggy
        assert replayed.diverged is False
