"""Ablation benches for the design choices DESIGN.md calls out.

1. Scheduling-point granularity: send/create-only vs every visible op.
2. Race-detector overhead: CHESS RD-on vs RD-off.
3. xSA on/off: false-positive counts.
4. Read-only extension on/off: the residual MultiPaxos pattern.
5. Search strategies: DFS vs random vs PCT vs delay-bounding on a deep bug.
"""

import pytest

from repro import (
    Campaign,
    DelayBoundingStrategy,
    DfsStrategy,
    PctStrategy,
    RandomStrategy,
    TestConfig,
)
from repro.analysis import analyze_program
from repro.analysis.frontend import lower_machines
from repro.bench import get
from repro.chess import chess_campaign

pytestmark = pytest.mark.bench


def _program(name):
    bench = get(name)
    return lower_machines(bench.correct.machines, bench.correct.helpers, name)


class TestSchedulingGranularity:
    def test_psharp_fewer_scheduling_points_than_chess(self):
        main = get("German").buggy.main

        def points(factory_kind):
            if factory_kind == "psharp":
                engine = Campaign(
                    TestConfig(
                        main,
                        max_iterations=20,
                        stop_on_first_bug=False,
                        max_steps=5000,
                        time_limit=30,
                    ),
                    strategy=RandomStrategy(seed=3),
                )
            else:
                engine = chess_campaign(
                    main, strategy=RandomStrategy(seed=3), race_detection=False,
                    max_iterations=20, stop_on_first_bug=False,
                    max_steps=20000, time_limit=30,
                )
            return engine.run().mean_scheduling_points

        psharp = points("psharp")
        chess = points("chess")
        assert chess > 2 * psharp, (psharp, chess)


class TestXsaAblation:
    @pytest.mark.parametrize("name", ["German", "Chameneos", "Swordfish"])
    def test_xsa_discards_false_positives(self, name):
        program = _program(name)
        without = analyze_program(program, xsa=False)
        with_xsa = analyze_program(program, xsa=True)
        assert with_xsa.violation_count() <= without.violation_count()

    def test_xsa_needed_somewhere(self):
        # At least one benchmark's verification depends on xSA.
        helped = 0
        for name in ["German", "Chameneos", "Swordfish", "AsyncSystem"]:
            program = _program(name)
            without = analyze_program(program, xsa=False)
            with_xsa = analyze_program(program, xsa=True)
            if with_xsa.violation_count() < without.violation_count():
                helped += 1
        assert helped >= 1


class TestReadOnlyAblation:
    def test_multipaxos_needs_readonly(self):
        program = _program("MultiPaxos")
        xsa_only = analyze_program(program, xsa=True, readonly=False)
        full = analyze_program(program, xsa=True, readonly=True)
        assert xsa_only.violation_count() > 0  # the paper's residual FPs
        assert full.verified


class TestStrategyComparison:
    @pytest.mark.parametrize(
        "strategy_name", ["random", "pct", "delay-bounding", "dfs"]
    )
    def test_strategies_on_shallow_bug(self, benchmark, strategy_name):
        main = get("ChainReplication").buggy.main
        factories = {
            "random": lambda: RandomStrategy(seed=5),
            "pct": lambda: PctStrategy(seed=5, depth=3),
            "delay-bounding": lambda: DelayBoundingStrategy(seed=5, delays=2),
            "dfs": lambda: DfsStrategy(),
        }

        def hunt():
            engine = Campaign(
                TestConfig(
                    main,
                    max_iterations=300,
                    stop_on_first_bug=True,
                    max_steps=5000,
                    time_limit=30,
                ),
                strategy=factories[strategy_name](),
            )
            return engine.run()

        report = benchmark.pedantic(hunt, rounds=1, iterations=1)
        # The shallow environment-driven bug is findable by randomized
        # strategies; DFS may or may not reach it in its corner of the
        # tree — exactly the Table 2 story.
        if strategy_name != "dfs":
            assert report.bug_found
