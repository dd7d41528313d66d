"""Hunting a deep consensus bug: Raft's stale-vote double leader.

Table 2 reports Raft's seeded bug as the rarest (2% of schedules, DFS
never reaches it within bounds).  This example compares the DFS and
random schedulers on it and replays the found trace — the Section 6.2
workflow end to end, written against the declarative
``TestConfig``/``Campaign`` facade: one frozen config describes the
campaign, ``with_overrides`` derives the strategy variations, and every
machine runs on the one single-thread carrier (reported as
``effective_backend``).

The command-line twin of this script:

    python -m repro test Raft --strategy dfs --max-iterations 300
    python -m repro test Raft --seed 7 --max-iterations 5000 \\
        --save-trace raft.trace.json
    python -m repro replay Raft --trace raft.trace.json

Run: ``python examples/find_raft_bug.py``
"""

from repro import Campaign, TestConfig


def main():
    base = TestConfig(
        "Raft",                      # registry target: the buggy variant
        max_iterations=300,
        max_steps=5_000,
        time_limit=60,
    )

    print("DFS scheduler, 300 schedules (explores one corner of the tree):")
    report = Campaign(base.with_overrides(strategy="dfs")).run()
    print(f"   {report.summary()}")

    print("\nrandom scheduler, up to 5000 schedules:")
    campaign = Campaign(
        base.with_overrides(seed=7, max_iterations=5_000, time_limit=120)
    )
    report = campaign.run()
    print(f"   {report.summary()}")
    print(f"   backend: {report.effective_backend}")

    if report.bug_found:
        trace = report.first_bug.trace
        print(f"\nreplaying the {len(trace)}-decision trace:")
        result = campaign.replay()            # the recorded winner
        print(f"   {result.bug}")
        assert result.buggy, "replay must reproduce the bug"
        print("   reproduced deterministically.")
    else:
        print("   (bug not hit with this seed/budget — it is a 2%-class bug;"
              " try a different seed)")


if __name__ == "__main__":
    main()
