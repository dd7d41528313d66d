"""Tests for the CHESS-style baseline runtime."""

import pytest

from repro import Campaign, DfsStrategy, RandomStrategy, TestConfig
from repro.chess import ChessRuntime, chess_campaign
from repro.testing import BugFindingRuntime

from .machines import Ping, RacyCounter


def _run(runtime_cls, main_cls, seed=0, **kwargs):
    strategy = RandomStrategy(seed=seed)
    strategy.prepare_iteration()
    runtime = runtime_cls(strategy, **kwargs)
    result = runtime.execute(main_cls)
    return runtime, result


class TestChessRuntime:
    def test_program_still_completes(self):
        runtime, result = _run(ChessRuntime, Ping)
        assert result.status == "ok"
        ping = runtime.machines[0]
        assert ping.count == 3

    def test_many_more_scheduling_points_than_psharp(self):
        # The core of Table 2's speed difference: CHESS schedules at every
        # visible operation, P# only at send/create.
        _, chess_result = _run(ChessRuntime, Ping)
        _, psharp_result = _run(BugFindingRuntime, Ping)
        assert (
            chess_result.scheduling_points
            >= 2 * psharp_result.scheduling_points
        )

    def test_no_races_reported_on_race_free_program(self):
        # "With data race detection enabled, CHESS did not find any races"
        runtime, result = _run(ChessRuntime, Ping, race_detection=True)
        assert result.status == "ok"
        assert runtime.races == []

    def test_finds_same_bugs(self):
        engine = chess_campaign(
            RacyCounter,
            strategy=RandomStrategy(seed=1),
            race_detection=False,
            max_iterations=300,
        )
        report = engine.run()
        assert report.bug_found

    def test_rd_off_faster_than_rd_on(self):
        # Directional overhead check with a generous margin: RD-on does
        # vector-clock work on every field access.
        import time

        def measure(rd):
            start = time.perf_counter()
            engine = chess_campaign(
                Ping,
                strategy=RandomStrategy(seed=2),
                race_detection=rd,
                max_iterations=60,
                stop_on_first_bug=False,
            )
            engine.run()
            return time.perf_counter() - start

        slow = measure(True)
        fast = measure(False)
        # Don't assert a strict ratio (timer noise); RD-on must not be
        # dramatically faster.
        assert slow > fast * 0.5

    def test_dfs_works_under_chess(self):
        strategy = DfsStrategy()
        strategy.prepare_iteration()
        runtime = ChessRuntime(strategy, race_detection=False)
        result = runtime.execute(Ping)
        assert result.status == "ok"


class TestReplayHonoursTheRuntimeFactory:
    """A bug found under a substitute runtime replays on that runtime:
    CHESS's extra scheduling points are part of the recorded schedule, so
    the stock runtime runs out of step with the trace after a few
    decisions and used to come back ``status="ok"``."""

    @pytest.mark.parametrize("program", ["BoundedAsync", "TwoPhaseCommit"])
    def test_find_then_replay_under_chess(self, program):
        campaign = Campaign(
            TestConfig(
                program=program, strategy="random", seed=3,
                runtime_factory=ChessRuntime, max_iterations=2_000, time_limit=120,
            )
        )
        found = campaign.run().first_bug
        assert found is not None
        replayed = campaign.replay()
        assert replayed.buggy and replayed.diverged is False
        assert replayed.bug.kind == found.kind
        assert replayed.trace.fingerprint() == found.trace.fingerprint()
        # The same trace on the stock runtime is a different execution,
        # and the result says so.
        stock = Campaign(campaign.config.with_overrides(runtime_factory=None))
        assert stock.replay(found.trace).diverged is True

    def test_chess_campaign_replays_on_its_own_runtime(self):
        campaign = chess_campaign(
            "BoundedAsync", strategy=RandomStrategy(seed=3),
            race_detection=False, max_iterations=2_000, time_limit=120,
        )
        found = campaign.run().first_bug
        assert found is not None
        replayed = campaign.replay()
        assert replayed.buggy and replayed.diverged is False
        assert replayed.trace.fingerprint() == found.trace.fingerprint()

    def test_factory_tied_to_its_live_strategy_falls_back_loudly(self):
        class Tagged(RandomStrategy):
            tag = "live"

        class TagReadingRuntime(BugFindingRuntime):
            def __init__(self, strategy, **kwargs):
                self.tag = strategy.tag  # only the campaign's strategy has it
                super().__init__(strategy, **kwargs)

        campaign = Campaign(
            TestConfig(RacyCounter, runtime_factory=TagReadingRuntime, max_iterations=500),
            strategy=Tagged(seed=3),
        )
        found = campaign.run().first_bug
        assert found is not None
        with pytest.warns(RuntimeWarning, match="stock runtime"):
            replayed = campaign.replay()
        assert replayed.buggy and replayed.diverged is False
        assert replayed.trace.fingerprint() == found.trace.fingerprint()
