"""Tier-1 smoke test of the benchmark: schema, names and exact counts at
``--smoke`` constants.  No ``bench`` marker, no wall-clock assertion.
"""

import json
import os
import re
import subprocess

import pytest

from benchmarks.perf import REPO_ROOT
from benchmarks.perf.metrics import END_TO_END_NAMES, PER_LAYER_NAMES, manifest
from benchmarks.perf.probes import run_probes
from benchmarks.perf.results import MANIFEST_PATH, judge
from benchmarks.perf.run import run_once
from benchmarks.perf.workloads import SMOKE, WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SEED = 7


def _tracked_changes():
    try:
        done = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=REPO_ROOT,
            capture_output=True, text=True, timeout=30, check=False,
        )
    except OSError:
        return None
    return done.stdout if done.returncode == 0 else None


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("perf-out"))


@pytest.fixture(scope="module")
def probe_values(out_dir):
    return run_probes(SMOKE, out_dir)


def test_manifest_matches_the_definitions():
    with open(MANIFEST_PATH, encoding="utf-8") as fh:
        on_disk = json.load(fh)
    assert on_disk == manifest(), "run python3 -m benchmarks.perf --write-manifest"
    assert 2 <= len(on_disk["workloads"]) <= 8
    assert len(on_disk["end_to_end"]) <= 16 and len(on_disk["per_layer"]) <= 128
    assert "setup_s" in END_TO_END_NAMES
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in on_disk[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < entry["bound"] <= 0.25 for entry in on_disk["end_to_end"])
    assert all(len(entry["why"]) <= 200 and "\n" not in entry["why"]
               for entry in on_disk["workloads"])


def test_probes_yield_their_metrics(probe_values):
    assert set(probe_values) <= set(PER_LAYER_NAMES)
    assert probe_values["core.inline_compatible_share"] == 1.0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counts_repeat_and_tracing_changes_none(name, out_dir, probe_values):
    before = _tracked_changes()
    plain = run_once(name, SEED, 0, False, sizes=SMOKE, out_dir=out_dir)
    traced = run_once(name, SEED, 0, True, sizes=SMOKE, out_dir=out_dir,
                      probe_values=probe_values)
    for result, names in ((plain, END_TO_END_NAMES), (traced, PER_LAYER_NAMES)):
        # run_once itself holds round 0 against its repeat and, traced,
        # the traced rounds against the untraced ones.
        assert result["correct"], result["notes"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert tuple(result["metrics"]) == names
        for cell in result["metrics"].values():
            assert set(cell) == {"value", "unit"}
            assert isinstance(cell["value"], (int, float))
    assert all(cell["value"] > 0 for cell in plain["metrics"].values())
    assert plain["counts"] == traced["counts"], "counts differ between two runs of one seed"
    assert traced["metrics"]["bench.tracing_overhead_ratio"]["value"] > 0
    with open(os.path.join(out_dir, f"trace-{name}.json"), encoding="utf-8") as fh:
        spans = json.load(fh)
    assert spans["columns"][:3] == ["id", "parent", "name"] and spans["spans"]
    assert _tracked_changes() == before, "the benchmark wrote to a tracked file"


def test_sweep_fails_an_arm_whose_bug_set_differs(out_dir):
    sweep = WORKLOADS["sweep"](SEED, SMOKE, out_dir)
    ops = sweep.round(0, None)
    assert all(op.ok for op in ops + sweep.check(ops))
    lossy = next(op for op in ops if op.kind == "cache:BoundedAsync:d5")
    lossy.detail["bugs"] = frozenset()
    inventive = next(op for op in ops if op.kind == "dpor:German:d5")
    inventive.detail["bugs"] = frozenset({("assertion-failure", "made up")})
    sweep.check(ops)
    assert {op.kind for op in ops if not op.ok} == {lossy.kind, inventive.kind}
    assert "newly misses" in lossy.note and "made up" in inventive.note


def test_compare_rule():
    assert judge("op_wall_s", [1.0, 1.01, 1.02], [1.5, 1.51, 1.52]) == "worse"
    assert judge("op_wall_s", [1.0, 1.01, 1.02], [0.8, 0.81, 0.82]) == "better"
    assert judge("op_wall_s", [1.0, 1.01, 1.02], [1.0, 1.02, 1.03]) == "within bound"
    assert judge("op_wall_s", [1.0, 1.4, 1.8], [1.1, 1.45, 1.9]) == "unresolved"
    assert judge("work_per_s", [100.0, 101.0, 102.0], [50.0, 51.0, 52.0]) == "worse"
