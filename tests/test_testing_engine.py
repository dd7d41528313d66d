"""Tests for the bug-finding runtime, strategies, engine and replay."""

import pytest

from repro import (
    BugFindingRuntime,
    Campaign,
    DelayBoundingStrategy,
    DfsStrategy,
    PctStrategy,
    RandomStrategy,
    ReplayStrategy,
    TestConfig,
    replay,
)

from .machines import NondetBug, Ping, RacyCounter, SelfLoop


class TestDfsStrategy:
    def test_enumerates_binary_tree(self):
        # Simulate two boolean decisions per iteration: 4 leaves total.
        dfs = DfsStrategy()
        seen = []
        while dfs.prepare_iteration():
            seen.append((dfs.pick_bool(), dfs.pick_bool()))
        assert seen == [
            (False, False),
            (False, True),
            (True, False),
            (True, True),
        ]

    def test_enumerates_mixed_arity(self):
        dfs = DfsStrategy()
        seen = []
        while dfs.prepare_iteration():
            seen.append((dfs.pick_int(3), dfs.pick_bool()))
        assert len(seen) == 6
        assert len(set(seen)) == 6

    def test_finds_nondet_bug_systematically(self):
        engine = Campaign(
            TestConfig(NondetBug, max_iterations=100),
            strategy=DfsStrategy(),
        )
        report = engine.run()
        assert report.bug_found
        # (F,F), (F,T), (T,F) explored first; (T,T) is the 4th schedule.
        assert report.first_bug_iteration == 3

    def test_exhausts_small_space(self):
        engine = Campaign(
            TestConfig(Ping, max_iterations=10_000, time_limit=60),
            strategy=DfsStrategy(),
        )
        report = engine.run()
        assert not report.bug_found
        # Ping/Pong has a finite schedule space; DFS must exhaust it.
        assert report.exhausted


class TestRandomStrategy:
    def test_finds_ordering_bug(self):
        engine = Campaign(
            TestConfig(RacyCounter, max_iterations=200, stop_on_first_bug=True),
            strategy=RandomStrategy(seed=1),
        )
        report = engine.run()
        assert report.bug_found
        assert report.first_bug.kind == "assertion-failure"

    def test_percent_buggy_estimation(self):
        engine = Campaign(
            TestConfig(RacyCounter, max_iterations=100, stop_on_first_bug=False),
            strategy=RandomStrategy(seed=1),
        )
        report = engine.run()
        assert report.iterations == 100
        # The out-of-order delivery happens in a sizable fraction of
        # schedules but not all of them.
        assert 0 < report.buggy_iterations < 100

    def test_seeded_runs_are_reproducible(self):
        def run():
            engine = Campaign(
                TestConfig(RacyCounter, max_iterations=50, stop_on_first_bug=False),
                strategy=RandomStrategy(seed=42),
            )
            return engine.run()

        a, b = run(), run()
        assert a.buggy_iterations == b.buggy_iterations
        assert a.total_scheduling_points == b.total_scheduling_points


class TestReplay:
    def test_replaying_buggy_trace_reproduces_bug(self):
        engine = Campaign(
            TestConfig(RacyCounter, max_iterations=500),
            strategy=RandomStrategy(seed=3),
        )
        report = engine.run()
        assert report.bug_found
        trace = report.first_bug.trace
        assert trace is not None and len(trace) > 0

        result = replay(RacyCounter, trace)
        assert result.buggy and result.diverged is False
        assert result.bug.kind == "assertion-failure"
        assert report.first_bug.message == result.bug.message

    def test_replaying_ok_trace_is_ok(self):
        strategy = RandomStrategy(seed=0)
        strategy.prepare_iteration()
        runtime = BugFindingRuntime(strategy)
        result = runtime.execute(Ping)
        assert result.status == "ok"

        replayed = replay(Ping, result.trace)
        assert replayed.status == "ok" and replayed.diverged is False
        assert replayed.steps == result.steps

    def test_trace_round_trips_through_json(self):
        strategy = RandomStrategy(seed=0)
        strategy.prepare_iteration()
        runtime = BugFindingRuntime(strategy)
        result = runtime.execute(Ping)
        from repro import ScheduleTrace

        restored = ScheduleTrace.from_json(result.trace.to_json())
        assert restored.decisions == result.trace.decisions


class TestDepthBound:
    def test_livelock_hits_depth_bound(self):
        strategy = RandomStrategy(seed=0)
        strategy.prepare_iteration()
        runtime = BugFindingRuntime(strategy, max_steps=200)
        result = runtime.execute(SelfLoop)
        assert result.status == "depth-bound"

    def test_livelock_reported_as_bug_when_requested(self):
        # Section 7.2.2: "we then imposed a depth-bound to automatically
        # detect the livelock and ensure termination".
        strategy = RandomStrategy(seed=0)
        strategy.prepare_iteration()
        runtime = BugFindingRuntime(strategy, max_steps=200, livelock_as_bug=True)
        result = runtime.execute(SelfLoop)
        assert result.buggy
        assert result.bug.kind == "liveness"


class TestOtherStrategies:
    @pytest.mark.parametrize(
        "strategy_factory",
        [
            lambda: PctStrategy(seed=5, depth=3),
            lambda: DelayBoundingStrategy(seed=5, delays=2),
        ],
        ids=["pct", "delay-bounding"],
    )
    def test_extension_strategies_find_ordering_bug(self, strategy_factory):
        engine = Campaign(
            TestConfig(RacyCounter, max_iterations=500, stop_on_first_bug=True),
            strategy=strategy_factory(),
        )
        report = engine.run()
        assert report.bug_found

    def test_replay_strategy_runs_once(self):
        from repro import ScheduleTrace

        strategy = ReplayStrategy(ScheduleTrace([("sched", 0)]))
        assert strategy.prepare_iteration()
        assert not strategy.prepare_iteration()


class TestReportStatistics:
    def test_max_machines_reflects_spawned_machines(self):
        # Regression: the engine used to record the per-iteration machine
        # count but never fold it into the report, so Table 2's #T column
        # was always 0.
        engine = Campaign(
            TestConfig(Ping, max_iterations=5, stop_on_first_bug=False, time_limit=30),
            strategy=RandomStrategy(seed=0),
        )
        report = engine.run()
        assert report.max_machines == 2  # Ping + Pong

        engine = Campaign(
            TestConfig(
                RacyCounter,
                max_iterations=5,
                stop_on_first_bug=False,
                time_limit=30,
            ),
            strategy=RandomStrategy(seed=0),
        )
        assert engine.run().max_machines == 3  # parent + two incrementers


class TestTimeLimit:
    def test_time_limit_cuts_off_mid_iteration(self):
        # Regression: the time limit used to be checked only between
        # iterations, so one long (here: infinite up to max_steps) schedule
        # could overshoot the budget arbitrarily.  With an effectively
        # unbounded step budget the engine must still return promptly.
        engine = Campaign(
            TestConfig(SelfLoop, max_iterations=10, time_limit=0.3, max_steps=10**9),
            strategy=RandomStrategy(seed=0),
        )
        report = engine.run()
        assert report.elapsed < 10.0
        assert report.timed_out
        # The cut-off partial schedule is not counted as an explored one...
        assert report.iterations == 0
        # ...but the work it did is still visible in the step counters.
        assert report.total_steps > 0

    def test_runtime_reports_time_bound_status(self):
        import time as time_module

        from repro.testing.runtime import BugFindingRuntime as Runtime

        strategy = RandomStrategy(seed=0)
        strategy.prepare_iteration()
        runtime = Runtime(
            strategy, max_steps=10**9,
            deadline=time_module.monotonic() + 0.1,
        )
        result = runtime.execute(SelfLoop)
        assert result.status == "time-bound"

    def test_runtime_stop_check_aborts_execution(self):
        from repro.testing.runtime import BugFindingRuntime as Runtime

        strategy = RandomStrategy(seed=0)
        strategy.prepare_iteration()
        runtime = Runtime(strategy, max_steps=10**9, stop_check=lambda: True)
        result = runtime.execute(SelfLoop)
        assert result.status == "stopped"


class TestSchedulingPointCounts:
    def test_scheduling_points_counted(self):
        strategy = RandomStrategy(seed=0)
        strategy.prepare_iteration()
        runtime = BugFindingRuntime(strategy)
        result = runtime.execute(Ping)
        # Ping creates 1 machine and the pair exchanges 3 pings + 3 pongs
        # + start + halt: each send/create is a scheduling point.
        assert result.scheduling_points >= 8
