"""Every event record type has a row in ``docs/observability.md``.

The JSONL event log is read by people and scripts that have only the
docs to go by.  One test runs the two kinds of campaign that write a log
— a single-strategy campaign, and a checkpointed 2-worker fleet whose
log also holds the records its workers forwarded — and fails on a
``type`` the table does not name.  The other scans ``src/`` for
``emit("...")`` calls, so a type a short campaign never reaches
(``progress``, ``watchdog_hit``) needs its row too.
"""

import json
import re
from pathlib import Path

from repro import Campaign, StrategySpec, TestConfig
from repro.testing.fleet import run_fleet

ROOT = Path(__file__).resolve().parents[1]
TABLE_HEADER = "| `type` | When |"


def documented_types():
    """The names in the first column of the event table."""
    lines = (ROOT / "docs" / "observability.md").read_text(encoding="utf-8").splitlines()
    types = set()
    for line in lines[lines.index(TABLE_HEADER) + 2:]:
        if not line.startswith("|"):
            break
        types.update(re.findall(r"`(\w+)`", line.split("|")[1]))
    return types


def logged_types(path):
    with open(path, encoding="utf-8") as fh:
        return {json.loads(line)["type"] for line in fh if line.strip()}


def test_every_type_both_campaigns_log_has_a_row(tmp_path):
    single = tmp_path / "single.jsonl"
    Campaign(
        TestConfig("BoundedAsync", seed=7, max_iterations=200, events_path=str(single))
    ).run()
    fleet = tmp_path / "fleet.jsonl"
    run_fleet(
        TestConfig(
            "BoundedAsync",
            specs=tuple(StrategySpec("random", {"seed": seed}) for seed in (1, 2, 3)),
            max_iterations=60, stop_on_first_bug=False, events_path=str(fleet),
        ),
        local_workers=2, checkpoint=str(tmp_path / "fleet.ckpt"),
    )
    single_types, fleet_types = logged_types(single), logged_types(fleet)
    # Both logs hold what the check is for: campaign spans, fleet records
    # and the shard records the workers forwarded.
    assert {"campaign_start", "shard_start", "bug_found", "shard_end", "campaign_end"} <= single_types
    assert {"fleet_start", "checkpoint", "fleet_worker_exit", "fleet_end"} <= fleet_types
    assert {"shard_start", "bug_found", "shard_end"} <= fleet_types
    assert (single_types | fleet_types) - documented_types() == set()


def test_every_type_the_source_emits_has_a_row():
    emitted = set()
    for path in (ROOT / "src").rglob("*.py"):
        emitted.update(re.findall(r'emit\(\s*"(\w+)"', path.read_text(encoding="utf-8")))
    assert len(emitted) >= 20  # the scan sees the calls it exists for
    assert emitted - documented_types() == set()
