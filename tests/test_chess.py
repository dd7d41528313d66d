"""Tests for the CHESS-style baseline runtime."""

import pytest

from repro import Campaign, DfsStrategy, Event, Machine, RandomStrategy, State, TestConfig
from repro.analysis.frontend import analyze_machines
from repro.chess import ChessRuntime, chess_campaign
from repro.chess import runtime as chess_runtime
from repro.lang import RaceDetector
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

    def test_rd_on_does_clock_work_at_every_field_access_and_rd_off_none(
        self, monkeypatch
    ):
        # Table 2's RD-on / RD-off cost difference, as exact counts: with
        # race detection every field access is checked against the vector
        # clocks; without it none is, and the schedule is the same.
        checks = []

        class CountingDetector(RaceDetector):
            def on_access(self, *args):
                checks.append(args)
                super().on_access(*args)

        class Counting(ChessRuntime):
            def reset(self):
                super().reset()
                self.accesses = 0

            def _on_field_write(self, machine, name):
                self.accesses += 1
                super()._on_field_write(machine, name)

        monkeypatch.setattr(chess_runtime, "RaceDetector", CountingDetector)
        on, on_result = _run(Counting, Ping, seed=2, race_detection=True)
        on_checks = len(checks)
        off, off_result = _run(Counting, Ping, seed=2, race_detection=False)
        assert on_result.trace == off_result.trace
        assert on.accesses == off.accesses > 0
        assert on_checks == on.accesses and len(on.detector._writes) > 0
        assert len(checks) == on_checks and off.detector is None

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


class EList(Event):
    pass


class EMore(Event):
    pass


class ListAppender(Machine):
    """Sends its list to a reader, then keeps appending to it: the write
    after send that Section 5's race definition forbids."""

    class Init(State):
        initial = True
        entry = "setup"
        actions = {EMore: "more"}

    def setup(self):
        self.items = [1]
        self.rounds = 1
        self.reader = self.create_machine(ListReader)
        self.send(self.reader, EList(self.items))
        self.send(self.id, EMore())

    def more(self):
        self.rounds = self.rounds + 1
        self.items.append(self.rounds)  # the reader holds this list
        if self.rounds < 4:
            self.send(self.id, EMore())


class ListReader(Machine):
    class Init(State):
        initial = True
        actions = {EList: "on_list"}

    def on_list(self):
        self.total = 0
        for value in self.payload:
            self.total = self.total + value


@pytest.fixture(scope="module")
def append_after_send():
    """A few hundred CHESS RD-on schedules of ListAppender, with every
    execution's race reports kept in one list."""
    races = []

    class Collecting(RaceDetector):
        def __init__(self):
            super().__init__()
            self.races = races

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chess_runtime, "RaceDetector", Collecting)
        report = chess_campaign(
            ListAppender, strategy=RandomStrategy(seed=0), race_detection=True,
            max_iterations=300, stop_on_first_bug=False,
        ).run()
    return report, races


class TestWriteAfterSend:
    """A known gap: CHESS's race detector does not see payload races."""

    def test_static_analysis_reports_it(self):
        analysis = analyze_machines([ListAppender, ListReader], name="append")
        assert not analysis.verified
        methods = {v.site.info.decl.name for _m, v in analysis.surviving()}
        assert "setup" in methods  # the send of self.items

    def test_the_reader_sees_the_appends_interleaved(self, append_after_send):
        report, _races = append_after_send
        assert report.iterations == 300 and not report.bug_found
        totals = {
            _run(ChessRuntime, ListAppender, seed=seed)[0].machines[1].total
            for seed in range(20)
        }
        assert len(totals) > 1  # the reader's sum depends on the schedule

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the hook sees only machine-field writes, keyed by their "
        "owner, and payload objects are not instrumented",
    )
    def test_chess_race_detection_reports_it(self, append_after_send):
        _report, races = append_after_send
        assert races
