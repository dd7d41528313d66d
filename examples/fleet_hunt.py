"""Sharding one campaign across a fleet of worker processes.

``examples/portfolio_hunt.py`` races strategies with
``Campaign.portfolio()``: one worker process per strategy.  ``run_fleet``
is the coordinator underneath it with the worker sources spelled out
(``docs/protocol.md``): it streams work units to warm worker processes
— local children forked from it, each on a socketpair of its own, here,
but the identical protocol carries TCP workers attached from other
shells or hosts with ``python -m repro submit``.  Workers heartbeat while busy;
a worker that dies mid-shard has its shard re-queued, so the merged
report is the same one an uninterrupted run produces.

The command-line twin of this script:

    python -m repro serve --config campaign.json --workers 2

Run: ``python examples/fleet_hunt.py [workers]``
"""

import sys

from repro import Campaign, TestConfig
from repro.testing import run_fleet


def main():
    workers = int(sys.argv[1]) if len(sys.argv) > 1 else 2

    config = TestConfig(
        "BoundedAsync",
        seed=7,
        specs=(
            "random,seed=1",
            "pct,depth=10,seed=2",
            "delay-bounding,delays=2,seed=3",
        ),
        max_iterations=150,
        time_limit=60,
        stop_on_first_bug=False,  # survey the whole budget, count bugs
    )

    # A campaign file makes the same config shippable to any host:
    # config.save("campaign.json") round-trips through the JSON schema
    # the fleet sends over the wire (versioned, loud on unknown fields).
    restored = TestConfig.from_json(config.to_json())
    assert restored == config

    print(f"fleet of {workers} local workers on BoundedAsync:")
    report = run_fleet(config, local_workers=workers)

    print(f"   campaign: {report.summary()}")
    for sub in report.sub_reports:
        print(f"     shard {sub.summary()}")

    # Same config, same seed, one worker per strategy: the portfolio
    # explores the identical schedules, so the distinct-bug fingerprint
    # sets must match — sharding changes wall-clock, not findings.
    local = Campaign(config).portfolio()
    fleet_prints = {b.trace.fingerprint() for b in report.bugs if b.trace}
    local_prints = {b.trace.fingerprint() for b in local.bugs if b.trace}
    assert fleet_prints == local_prints, "fleet must match the local portfolio"
    print(
        f"   {len(fleet_prints)} distinct bug fingerprints — identical to "
        f"Campaign.portfolio() of the same config."
    )


if __name__ == "__main__":
    main()
