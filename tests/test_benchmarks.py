"""Integration tests over the benchmark suite: every correct variant runs
clean, every buggy variant's bug is findable, every racy variant is
flagged statically, and correct variants verify (possibly needing xSA or
the read-only extension, as Table 1 reports)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import Campaign, RandomStrategy, TestConfig
from repro.analysis.frontend import analyze_machines, lower_machines
from repro.bench import all_benchmarks, get

PSHARPBENCH = [
    "BoundedAsync",
    "German",
    "BasicPaxos",
    "TwoPhaseCommit",
    "Chord",
    "MultiPaxos",
    "Raft",
    "ChainReplication",
]
SOTER = ["Leader", "Pi", "Chameneos", "Swordfish"]

#: Looks one program up first in a fresh interpreter, then lists the
#: registry, noting which module registered each name.
LOOKUP_FIRST = """
import json, sys
from repro.bench import registry

registrar = {}
register = registry.register

def noting(benchmark):
    registrar[benchmark.name] = sys._getframe(1).f_globals["__name__"]
    return register(benchmark)

registry.register = noting
registry.resolve_target("TokenRing")
first = sorted(registrar)
print(json.dumps({
    "first": first,
    "order": [b.name for b in registry.all_benchmarks()],
    "registrar": registrar,
    "table": registry._MODULE_OF,
}))
"""


def run_random(main, iterations=30, seed=0, stop_on_first_bug=False, max_steps=5000):
    engine = Campaign(
        TestConfig(
            main,
            max_iterations=iterations,
            stop_on_first_bug=stop_on_first_bug,
            max_steps=max_steps,
            time_limit=120,
        ),
        strategy=RandomStrategy(seed=seed),
    )
    return engine.run()


class TestRegistry:
    def test_all_benchmarks_registered(self):
        names = {b.name for b in all_benchmarks()}
        for expected in PSHARPBENCH + SOTER + ["AsyncSystem"]:
            assert expected in names

    def test_statistics_available(self):
        for benchmark in all_benchmarks():
            stats = benchmark.statistics()
            assert stats["machines"] >= 2
            assert stats["transitions"] + stats["action_bindings"] > 0
            assert benchmark.loc() > 30

    def test_loc_is_pinned(self):
        # Table 1's LoC column, and the numerator of the `analyze`
        # benchmark workload's throughput: `inspect.getsource` line counts
        # of each class in the correct variant's machine and helper MROs.
        assert {b.name: b.loc() for b in all_benchmarks()} == {
            "AsyncSystem": 131, "BasicPaxos": 145, "BoundedAsync": 81,
            "ChainReplication": 136, "Chord": 94, "Raft": 224,
            "TwoPhaseCommit": 144, "RaftLossy": 226, "TwoPhaseCommitCrash": 186,
            "German": 130, "MultiPaxos": 167, "ProcessScheduler": 60,
            "Leader": 49, "Pi": 40, "Chameneos": 50, "Swordfish": 63,
            "TokenRing": 76,
        }

    def test_a_lookup_loads_one_program_and_the_listing_keeps_its_order(self):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        done = subprocess.run(
            [sys.executable, "-c", LOOKUP_FIRST], capture_output=True, text=True,
            timeout=120, check=True, cwd=root, env=env,
        )
        row = json.loads(done.stdout)
        assert row["first"] == ["TokenRing"]
        # Every registered name is in the table, under its registering module.
        assert row["registrar"] == {
            name: f"repro.bench.{module}" for name, module in row["table"].items()
        }
        # The listing's order does not depend on what was looked up first.
        assert row["order"] == [
            "AsyncSystem", "BasicPaxos", "BoundedAsync", "ChainReplication", "Chord",
            "Raft", "TwoPhaseCommit", "RaftLossy", "TwoPhaseCommitCrash", "German",
            "MultiPaxos", "ProcessScheduler", "Leader", "Pi", "Chameneos", "Swordfish",
            "TokenRing",
        ]


@pytest.mark.parametrize("name", PSHARPBENCH + SOTER)
def test_correct_variant_runs_clean(name):
    benchmark = get(name)
    report = run_random(benchmark.correct.main, iterations=25, seed=11)
    assert not report.bug_found, str(report.first_bug)
    assert report.iterations == 25


@pytest.mark.parametrize("name", PSHARPBENCH)
def test_buggy_variant_bug_found_by_random(name):
    benchmark = get(name)
    assert benchmark.buggy is not None
    report = run_random(
        benchmark.buggy.main, iterations=2000, seed=7, stop_on_first_bug=True
    )
    assert report.bug_found, f"no bug found in {name} after {report.iterations} schedules"


@pytest.mark.parametrize("name", PSHARPBENCH + SOTER)
def test_correct_variant_lowers(name):
    benchmark = get(name)
    program = lower_machines(
        benchmark.correct.machines, benchmark.correct.helpers, name=name
    )
    assert program.machines


@pytest.mark.parametrize("name", PSHARPBENCH)
def test_racy_variant_flagged_statically(name):
    benchmark = get(name)
    assert benchmark.racy is not None
    analysis = analyze_machines(
        benchmark.racy.machines,
        benchmark.racy.helpers,
        name=f"{name}-racy",
        xsa=True,
    )
    assert not analysis.verified, f"seeded race in {name} was missed"


@pytest.mark.parametrize("name", PSHARPBENCH + SOTER)
def test_correct_variant_verified_with_extensions(name):
    benchmark = get(name)
    analysis = analyze_machines(
        benchmark.correct.machines,
        benchmark.correct.helpers,
        name=name,
        xsa=True,
        readonly=True,
    )
    assert analysis.verified, [
        str(d) for d in analysis.to_report().diagnostics if d.suppressed_by is None
    ]


def test_german_livelock_detected_by_depth_bound():
    from repro.bench.german import LivelockHost

    engine = Campaign(
        TestConfig(
            LivelockHost,
            max_iterations=50,
            stop_on_first_bug=True,
            max_steps=2000,
            livelock_as_bug=True,
        ),
        strategy=RandomStrategy(seed=3),
    )
    report = engine.run()
    assert report.bug_found
    assert report.first_bug.kind == "liveness"


def test_async_system_five_bugs():
    from repro.bench.async_system import BUG_DRIVERS

    found = {}
    for bug, (driver, _service) in BUG_DRIVERS.items():
        report = run_random(driver, iterations=800, seed=13, stop_on_first_bug=True)
        found[bug] = report.bug_found
    assert sum(found.values()) >= 4, found
