"""Tests for the parallel portfolio campaign, strategy specs and report
merging."""

import pickle

import pytest

from repro import (
    BugReport,
    Campaign,
    IterativeDeepeningDfsStrategy,
    Machine,
    RandomStrategy,
    ScheduleTrace,
    State,
    StrategySpec,
    TestConfig,
    TestReport,
    default_portfolio,
    make_strategy,
    register_strategy,
    replay,
)
from repro.chess import ChessRuntime
from repro.errors import PSharpError
from repro.testing.fleet import run_fleet
from repro.testing.portfolio import strategy_names

from .machines import NondetBug, Ping, RacyCounter
from .test_chaos import _drain_children
from .test_fleet import fingerprints


class TestStrategyRegistry:
    def test_specs_build_registered_strategies(self):
        strategy = make_strategy(StrategySpec("random", {"seed": 3}))
        assert isinstance(strategy, RandomStrategy)
        assert StrategySpec("iddfs").build().name == "iddfs"

    def test_unknown_strategy_name_raises(self):
        with pytest.raises(PSharpError, match="unknown strategy"):
            make_strategy(StrategySpec("simulated-annealing"))

    def test_custom_strategies_can_be_registered(self):
        register_strategy("my-random", RandomStrategy)
        try:
            assert "my-random" in strategy_names()
            strategy = make_strategy(StrategySpec("my-random", {"seed": 9}))
            assert isinstance(strategy, RandomStrategy)
        finally:
            from repro.testing.portfolio import _STRATEGY_FACTORIES

            del _STRATEGY_FACTORIES["my-random"]

    def test_specs_are_picklable(self):
        spec = StrategySpec("pct", {"depth": 3, "seed": 1})
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_specs_are_hashable_by_value(self):
        a = StrategySpec("pct", {"depth": 3, "seed": 1})
        b = StrategySpec("pct", {"seed": 1, "depth": 3})
        c = StrategySpec("pct", {"depth": 4, "seed": 1})
        assert {a, b, c} == {a, c}

    def test_default_portfolio_is_diverse_and_seeded(self):
        specs = default_portfolio(6, seed=11)
        assert len(specs) == 6
        # Diversity: at least three distinct strategy kinds in a 6-pack.
        assert len({spec.name for spec in specs}) >= 3
        # Same-named workers must not duplicate each other's search.
        seeds = [spec.params["seed"] for spec in specs if "seed" in spec.params]
        assert len(seeds) == len(set(seeds))

    def test_unseeded_portfolio_varies_across_runs(self):
        first = default_portfolio(2)
        second = default_portfolio(2)
        assert first != second  # fresh entropy, like an unseeded RandomStrategy

    def test_default_portfolio_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            default_portfolio(0)


class TestIterativeDeepeningDfs:
    def test_finds_shallow_nondet_bug(self):
        engine = Campaign(
            TestConfig(NondetBug, max_iterations=100),
            strategy=IterativeDeepeningDfsStrategy(initial_depth=2),
        )
        report = engine.run()
        assert report.bug_found

    def test_exhausts_finite_space_without_deepening_forever(self):
        engine = Campaign(
            TestConfig(Ping, max_iterations=10_000, time_limit=60),
            strategy=IterativeDeepeningDfsStrategy(initial_depth=4),
        )
        report = engine.run()
        assert not report.bug_found
        assert report.exhausted


class TestReportMerging:
    def _report(self, **kwargs):
        defaults = dict(strategy="s", iterations=0)
        defaults.update(kwargs)
        return TestReport(**defaults)

    def test_merge_arithmetic(self):
        a = self._report(
            strategy="a", iterations=10, buggy_iterations=2, depth_bound_hits=1,
            total_steps=100, total_scheduling_points=50, max_machines=3,
            elapsed=2.0,
        )
        b = self._report(
            strategy="b", iterations=20, buggy_iterations=1, depth_bound_hits=0,
            total_steps=300, total_scheduling_points=80, max_machines=5,
            elapsed=1.5,
        )
        merged = TestReport.merged([a, b])
        assert merged.iterations == 30
        assert merged.buggy_iterations == 3
        assert merged.depth_bound_hits == 1
        assert merged.total_steps == 400
        assert merged.total_scheduling_points == 130
        assert merged.max_machines == 5
        # Concurrent work: wall-clock, not the sum.
        assert merged.elapsed == 2.0
        assert merged.schedules_per_second == 30 / 2.0
        assert merged.sub_reports == [a, b]

    def test_merge_keeps_fold_order_first_bug(self):
        bug_a = BugReport(kind="assertion-failure", message="a")
        bug_b = BugReport(kind="liveness", message="b")
        first = self._report(first_bug=None)
        second = self._report(first_bug=bug_a, first_bug_iteration=4, bugs=[bug_a])
        third = self._report(first_bug=bug_b, first_bug_iteration=1, bugs=[bug_b])
        merged = TestReport.merged([first, second, third])
        assert merged.first_bug is bug_a
        assert merged.first_bug_iteration == 4
        assert merged.bugs == [bug_a, bug_b]

    def test_merged_exhausted_requires_all_workers_exhausted(self):
        done = self._report(exhausted=True)
        ongoing = self._report(exhausted=False)
        assert TestReport.merged([done, done]).exhausted
        assert not TestReport.merged([done, ongoing]).exhausted
        assert not TestReport.merged([]).exhausted

    def test_detached_report_is_picklable_and_keeps_trace(self):
        engine = Campaign(
            TestConfig(RacyCounter, max_iterations=500),
            strategy=RandomStrategy(seed=3),
        )
        report = engine.run()
        assert report.bug_found
        detached = report.detached()
        restored = pickle.loads(pickle.dumps(detached))
        assert restored.iterations == report.iterations
        assert restored.first_bug.kind == report.first_bug.kind
        assert isinstance(restored.first_bug.machine, str)
        assert restored.first_bug.trace.decisions == report.first_bug.trace.decisions


class TestPortfolioCampaign:
    def test_first_bug_wins_cancels_other_workers(self):
        # One worker finds the ordering bug fast; the other (iddfs, which
        # explores systematically) would otherwise grind through its whole
        # 100k-iteration shard.  Cancellation must cut it short.
        config = TestConfig(
            RacyCounter,
            specs=[
                StrategySpec("random", {"seed": 1}),
                StrategySpec("iddfs", {}),
            ],
            max_iterations=100_000,
            time_limit=60,
            max_steps=2_000,
        )
        report = Campaign(config).portfolio()
        assert report.bug_found
        assert report.first_bug is not None
        assert len(report.sub_reports) == 2
        assert all(sub.iterations < 100_000 for sub in report.sub_reports)

    def test_winning_trace_replays_to_same_bug(self):
        campaign = Campaign(
            TestConfig(
                RacyCounter,
                specs=default_portfolio(3, seed=5),
                max_iterations=2_000,
                time_limit=60,
                max_steps=2_000,
            )
        )
        report = campaign.portfolio()
        assert report.first_bug is not None
        assert isinstance(report.first_bug.trace, ScheduleTrace)

        # Replay in the parent process: same bug type, same message.
        result = replay(RacyCounter, report.first_bug.trace, max_steps=2_000)
        assert result.buggy and result.diverged is False
        assert result.bug.kind == report.first_bug.kind
        assert result.bug.message == report.first_bug.message

        # The campaign replays its own last winner the same way.
        again = campaign.replay()
        assert again is not None and again.bug.kind == report.first_bug.kind
        assert again.diverged is False

    def test_one_worker_portfolio_matches_single_campaign(self):
        # A 1-worker portfolio runs the exact campaign loop Campaign.run
        # runs; with the same seeded strategy the exploration statistics
        # must match field for field.
        kwargs = dict(max_iterations=60, max_steps=2_000, stop_on_first_bug=False)
        single = Campaign(
            TestConfig(RacyCounter, time_limit=60, **kwargs),
            strategy=RandomStrategy(seed=42),
        ).run()
        portfolio = Campaign(
            TestConfig(
                RacyCounter,
                specs=[StrategySpec("random", {"seed": 42})],
                time_limit=60,
                **kwargs,
            )
        ).portfolio()
        assert len(portfolio.sub_reports) == 1
        shard = portfolio.sub_reports[0]
        assert shard.iterations == single.iterations
        assert shard.buggy_iterations == single.buggy_iterations
        assert shard.total_steps == single.total_steps
        assert shard.total_scheduling_points == single.total_scheduling_points
        assert shard.max_machines == single.max_machines
        assert portfolio.iterations == single.iterations

    def test_no_bug_campaign_reports_all_shards(self):
        campaign = Campaign(
            TestConfig(
                Ping,
                specs=[
                    StrategySpec("random", {"seed": 0}),
                    StrategySpec("delay-bounding", {"seed": 0, "delays": 2}),
                ],
                max_iterations=25,
                time_limit=60,
                max_steps=2_000,
            )
        )
        report = campaign.portfolio()
        assert not report.bug_found
        assert report.first_bug is None
        assert report.iterations == 50
        assert [s.iterations for s in report.sub_reports] == [25, 25]
        assert campaign.replay() is None

    def test_deadline_bounds_the_campaign(self):
        config = TestConfig(
            RacyCounter,
            specs=default_portfolio(2, seed=1),
            max_iterations=10_000_000,
            time_limit=1.0,
            max_steps=2_000,
            stop_on_first_bug=False,
        )
        report = Campaign(config).portfolio()
        # Workers must stop at the shared deadline, not at the iteration cap.
        assert report.elapsed < 30.0
        assert all(sub.iterations < 10_000_000 for sub in report.sub_reports)

    def test_rejects_an_empty_mix(self):
        with pytest.raises(PSharpError, match="at least one strategy"):
            TestConfig(Ping, specs=[])

    def test_bad_specs_fail_fast_in_the_parent(self):
        # A typo'd strategy name or parameter must raise in the parent
        # before any worker starts, not silently produce an empty shard.
        with pytest.raises(PSharpError, match="unknown strategy"):
            Campaign(TestConfig(Ping, specs=[StrategySpec("randm", {})])).portfolio()
        with pytest.raises(PSharpError, match="invalid parameters"):
            Campaign(
                TestConfig(Ping, specs=[StrategySpec("pct", {"depht": 3})])
            ).portfolio()


class PayloadCheck(Machine):
    """Halts clean iff its creation payload is the ``(count, frozenset)``
    pair the config was given — a payload JSON cannot carry."""

    class Init(State):
        initial = True
        entry = "go"

    def go(self):
        count, tags = self.payload
        self.assert_that(
            isinstance(tags, frozenset) and len(tags) == count,
            f"payload arrived as {self.payload!r}",
        )
        self.halt()


class TestConfigCrossesTheProcessBoundary:
    """Portfolio workers receive the campaign's ``TestConfig`` by value.
    Under ``fork`` that is a memory copy; under ``spawn`` it is pickled,
    unpickled in a fresh interpreter and must drive the identical
    campaign there.  Only a coordinator that listens for wire peers has
    to express the config as campaign JSON."""

    def _config(self, **overrides):
        kwargs = dict(
            program="Raft",
            specs=[
                StrategySpec("random", {"seed": 21}),
                StrategySpec("pct", {"seed": 22, "depth": 10}),
            ],
            max_iterations=40,
            max_steps=2_000,
            time_limit=120,
            stop_on_first_bug=False,
        )
        kwargs.update(overrides)
        return TestConfig(**kwargs)

    def _assert_same_campaign(self, config):
        forked = Campaign(config).portfolio()
        spawned = Campaign(config.with_overrides(start_method="spawn")).portfolio()
        assert forked.iterations == spawned.iterations == 2 * config.max_iterations
        assert forked.total_steps == spawned.total_steps > 0
        assert fingerprints(forked) == fingerprints(spawned)
        return forked, spawned

    def test_spawn_start_method_runs_the_same_portfolio(self):
        forked, spawned = self._assert_same_campaign(self._config())
        assert spawned.effective_backend == forked.effective_backend == "inline"

    def test_runtime_factory_reaches_the_spawned_child(self):
        forked, spawned = self._assert_same_campaign(
            self._config(runtime_factory=ChessRuntime, max_iterations=6)
        )
        # CHESS runs on threads and schedules at every visible
        # operation: both show the factory ran in the children.
        assert spawned.effective_backend == "threads"
        plain = Campaign(self._config(max_iterations=6)).portfolio()
        assert spawned.total_scheduling_points > 2 * plain.total_scheduling_points

    @pytest.mark.parametrize(
        "kind, start_methods, backend, refusal",
        [
            ("runtime-factory", ("fork", "spawn"), "threads",
             "runtime_factory cannot be serialized"),
            ("local-class", ("fork",), "inline",
             "not importable from another process"),
            ("object-payload", ("fork",), "inline", "not JSON-serializable"),
        ],
    )
    def test_what_campaign_json_refuses_still_runs_locally(
        self, kind, start_methods, backend, refusal
    ):
        class LocalPing(Ping):
            rounds = 2

        config = {
            "runtime-factory": self._config(
                runtime_factory=ChessRuntime, max_iterations=6
            ),
            "local-class": self._config(program=LocalPing),
            "object-payload": self._config(
                program=PayloadCheck, payload=(2, frozenset({"a", "b"}))
            ),
        }[kind]
        for start_method in start_methods:
            report = Campaign(
                config.with_overrides(start_method=start_method)
            ).portfolio()
            assert report.iterations == 2 * config.max_iterations
            assert report.effective_backend == backend
            assert [sub.iterations for sub in report.sub_reports] == (
                [config.max_iterations] * 2
            )
            if kind != "runtime-factory":
                assert not report.bug_found, report.first_bug
        # A listening coordinator would have to ship the config to wire
        # peers as campaign JSON: refused before it binds or forks.
        listening = []
        with pytest.raises(PSharpError, match=refusal):
            run_fleet(
                config, port=0, local_workers=2,
                on_listen=lambda host, port: listening.append(port),
            )
        assert listening == []
        assert _drain_children() == []
