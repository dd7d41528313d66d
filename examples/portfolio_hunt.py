"""Hunting the Raft stale-vote bug with a parallel strategy portfolio.

``examples/find_raft_bug.py`` shows a single strategy at a time: DFS
misses the bug (it lives deep in the schedule tree, in ~2% of schedules)
and random needs the right seed.  Here ``Campaign.portfolio()`` races a
portfolio of diverse strategies — random, PCT at several priority-change
budgets, delay-bounding at several delay budgets, iterative-deepening
DFS — in separate processes; the first worker to hit the bug cancels the
rest and hands back a replayable trace.  Every worker runs its machines
on the one single-thread carrier (the campaign report's
``effective_backend`` says so).

The command-line twin: ``python -m repro test Raft --portfolio 4 --seed 7``

Run: ``python examples/portfolio_hunt.py [workers]``
"""

import sys

from repro import Campaign, TestConfig


def main():
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    print(f"portfolio of {workers} workers on Raft's seeded bug:")
    campaign = Campaign(
        TestConfig(
            "Raft",
            seed=7,
            max_iterations=5_000,
            time_limit=120,
            max_steps=5_000,
            portfolio_workers=workers,
        )
    )
    report = campaign.portfolio()

    print(f"   campaign: {report.summary()}")
    print(f"   backend: {report.effective_backend}")
    for sub in report.sub_reports:
        print(f"     worker {sub.summary()}")

    if report.first_bug is None:
        print("   (bug not hit within the budget — raise workers/iterations)")
        return

    trace = report.first_bug.trace
    print(f"\nreplaying the winning {len(trace)}-decision trace in-process:")
    result = campaign.replay()
    print(f"   {result.bug}")
    assert result.buggy, "replay must reproduce the bug"
    print("   reproduced deterministically.")


if __name__ == "__main__":
    main()
