"""Table 2: CHESS vs the P# schedulers on the buggy PSharpBench programs.

Regenerates the paper's Table 2 comparison (Section 7.2.2) at reduced
bounds (the paper used 10,000 schedules / 5 minutes per cell; we default
to 150 schedules / 15s so the whole table builds in CI time — the *shape*
is what must hold):

* CHESS pays for race detection: RD-on is slower than RD-off;
* the P# DFS scheduler explores far fewer scheduling points per schedule
  than CHESS (send/create-machine only vs every visible operation) and is
  therefore faster;
* the random scheduler finds every seeded bug; DFS misses the deep ones.

Run: ``pytest benchmarks/test_table2_bugfinding.py --benchmark-only -s``
"""

import pytest

from repro import Campaign, DfsStrategy, RandomStrategy, TestConfig
from repro.bench import buggy_main as _buggy_main
from repro.chess import chess_campaign

from .tables import PSHARPBENCH, TABLE2_SCHEDULERS, build_table2, run_cell

pytestmark = pytest.mark.bench

THROUGHPUT_BENCHES = ["BoundedAsync", "German", "2PhaseCommit"]


@pytest.mark.parametrize("name", THROUGHPUT_BENCHES)
def test_psharp_dfs_throughput(benchmark, name):
    main = _buggy_main(name)

    def run():
        engine = Campaign(
            TestConfig(
                main,
                max_iterations=30,
                time_limit=10,
                stop_on_first_bug=False,
                max_steps=5000,
            ),
            strategy=DfsStrategy(),
        )
        return engine.run()

    report = benchmark(run)
    assert report.iterations > 0


@pytest.mark.parametrize("name", THROUGHPUT_BENCHES)
def test_chess_rd_off_throughput(benchmark, name):
    main = _buggy_main(name)

    def run():
        engine = chess_campaign(
            main, strategy=DfsStrategy(), race_detection=False,
            max_iterations=30, time_limit=10, stop_on_first_bug=False,
            max_steps=20000,
        )
        return engine.run()

    report = benchmark(run)
    assert report.iterations > 0


@pytest.mark.parametrize("name", THROUGHPUT_BENCHES)
def test_chess_rd_on_throughput(benchmark, name):
    main = _buggy_main(name)

    def run():
        engine = chess_campaign(
            main, strategy=DfsStrategy(), race_detection=True,
            max_iterations=30, time_limit=10, stop_on_first_bug=False,
            max_steps=20000,
        )
        return engine.run()

    report = benchmark(run)
    assert report.iterations > 0


def test_print_table2(capsys):
    table = build_table2(max_iterations=150, time_limit=15.0)
    with capsys.disabled():
        print()
        print("=" * 100)
        print("Table 2 — bug finding: CHESS (RD-on/RD-off) vs P# DFS vs "
              "P# random (paper: Table 2, Section 7.2.2)")
        print("=" * 100)
        for name, cells in table.items():
            print(f"--- {name}")
            for cell in cells:
                print("   ", cell.format())

    # Shape assertions mirroring the paper:
    random_found = 0
    for name, cells in table.items():
        by_sched = {c.scheduler: c for c in cells}
        psharp = by_sched["psharp-dfs"]
        chess = by_sched["chess-rd-off"]
        # P# schedules have far fewer scheduling points than CHESS's
        # visible-operation instrumentation.
        if psharp.schedules >= 3 and chess.schedules >= 3:
            assert psharp.sched_points < chess.sched_points
        if by_sched["psharp-random"].bug_found:
            random_found += 1
    # "the random scheduler was able to find all bugs"
    assert random_found >= len(table) - 1, (
        f"random found only {random_found}/{len(table)}"
    )
