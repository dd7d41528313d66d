"""Edge-case and failure-injection tests across modules."""

import pytest

from repro import (
    AnalysisReport,
    BugFindingRuntime,
    Campaign,
    DfsStrategy,
    Event,
    Machine,
    RandomStrategy,
    ScheduleTrace,
    State,
    TestConfig,
)
from repro.analysis import analyze_program, build_driver
from repro.analysis.frontend import FrontendError, lower_machines
from repro.errors import AnalysisDiagnostic
from repro.lang import Interpreter, ParseError, parse_program
from repro.testing.engine import replay_trace
from repro.testing.strategies import ReplayStrategy


class EKick(Event):
    pass


class EData(Event):
    pass


def run_once(main_cls, seed=0, **kwargs):
    strategy = RandomStrategy(seed=seed)
    strategy.prepare_iteration()
    runtime = BugFindingRuntime(strategy, **kwargs)
    return runtime, runtime.execute(main_cls)


class TestRuntimeEdges:
    def test_self_send_preserves_fifo(self):
        log = []

        class SelfSender(Machine):
            class S(State):
                initial = True
                entry = "go"
                actions = {EKick: "on_kick", EData: "on_data"}

            def go(self):
                self.send(self.id, EKick())
                self.send(self.id, EData())

            def on_kick(self):
                log.append("kick")

            def on_data(self):
                log.append("data")
                self.halt()

        _, result = run_once(SelfSender)
        assert result.status == "ok"
        assert log == ["kick", "data"]

    def test_machine_creating_many_children(self):
        class Parent(Machine):
            class S(State):
                initial = True
                entry = "go"

            def go(self):
                for _ in range(10):
                    self.create_machine(Child)
                self.halt()

        class Child(Machine):
            class S(State):
                initial = True
                entry = "go"

            def go(self):
                self.halt()

        runtime, result = run_once(Parent)
        assert result.status == "ok"
        assert len(runtime.machines) == 11

    def test_double_raise_is_a_bug(self):
        class DoubleRaiser(Machine):
            class S(State):
                initial = True
                entry = "go"
                actions = {EKick: "nop", EData: "nop"}

            def go(self):
                self.raise_event(EKick())
                self.raise_event(EData())

            def nop(self):
                pass

        _, result = run_once(DoubleRaiser)
        assert result.buggy

    def test_nondet_int_range(self):
        seen = set()

        class Chooser(Machine):
            class S(State):
                initial = True
                entry = "go"

            def go(self):
                seen.add(self.nondet_int(4))
                self.halt()

        engine = Campaign(
            TestConfig(Chooser, max_iterations=50, stop_on_first_bug=False),
            strategy=DfsStrategy(),
        )
        report = engine.run()
        assert report.exhausted
        assert seen == {0, 1, 2, 3}

    def test_max_steps_zero_like_bound(self):
        from .machines import Ping

        _, result = run_once(Ping, max_steps=2)
        assert result.status == "depth-bound"


class IntChooser(Machine):
    """Draws one ``nondet_int(4)`` and halts."""

    chosen = None

    class S(State):
        initial = True
        entry = "go"

    def go(self):
        type(self).chosen = self.nondet_int(4)
        self.halt()


class TestReplayEdges:
    def test_replay_of_empty_trace_terminates(self):
        from .machines import Ping

        strategy = ReplayStrategy(ScheduleTrace([]))
        strategy.prepare_iteration()
        runtime = BugFindingRuntime(strategy)
        result = runtime.execute(Ping)
        assert result.status == "ok"
        assert strategy.diverged  # fell back to first-enabled

    @pytest.mark.parametrize("recorded, diverged", [(3, False), (4, True), (99, True)])
    def test_recorded_int_beyond_the_bound_diverges(self, recorded, diverged):
        strategy = ReplayStrategy(ScheduleTrace([("sched", 0), ("int", recorded)]))
        strategy.prepare_iteration()
        result = BugFindingRuntime(strategy).execute(IntChooser)
        assert result.status == "ok"
        assert IntChooser.chosen == (recorded if not diverged else 0)
        assert result.diverged is diverged

    def test_replay_with_garbage_machine_ids(self):
        from .machines import Ping

        strategy = ReplayStrategy(ScheduleTrace([("sched", 999)] * 50))
        strategy.prepare_iteration()
        runtime = BugFindingRuntime(strategy)
        result = runtime.execute(Ping)
        assert result.status == "ok"


class WideChooser(Machine):
    """Draws one ``nondet_int(bound)``, the class's ``bound``, and halts."""

    bound = 4

    class S(State):
        initial = True
        entry = "go"

    def go(self):
        self.nondet_int(type(self).bound)
        self.halt()


class TestNondetIntBound:
    """A trace holds a draw as a 64-bit value, so the runtime refuses a
    bound outside ``1..2**63`` before drawing: the same bug on every
    schedule, under every strategy and in replay."""

    def campaign(self, strategy):
        config = TestConfig(WideChooser, max_iterations=5, stop_on_first_bug=False)
        return config, Campaign(config, strategy=strategy).run()

    @pytest.mark.parametrize("bound", [0, -3, 2 ** 63 + 1, 2 ** 70])
    @pytest.mark.parametrize("strategy", ["random", "dfs"])
    def test_a_bound_outside_the_range_is_refused_before_drawing(
        self, monkeypatch, bound, strategy
    ):
        monkeypatch.setattr(WideChooser, "bound", bound)
        config, report = self.campaign(
            RandomStrategy(seed=1) if strategy == "random" else DfsStrategy()
        )
        assert report.buggy_iterations == report.iterations >= 1
        assert len(report.bugs) == report.iterations
        # One bug: the draw is the main machine's first act.
        (bug,) = {bug.trace.fingerprint(): bug for bug in report.bugs}.values()
        assert bug.kind == "runtime-error"
        assert bug.message == f"nondet_int bound must be in 1..2**63, got {bound}"
        assert bug.trace.to_pairs() == [["sched", 0]]
        replayed = replay_trace(config, bug.trace)
        assert not replayed.diverged
        assert (replayed.bug.kind, replayed.bug.message) == (bug.kind, bug.message)

    @pytest.mark.parametrize("strategy", ["random", "dfs"])
    def test_the_widest_bound_is_drawn_and_its_trace_replays(
        self, monkeypatch, strategy
    ):
        monkeypatch.setattr(WideChooser, "bound", 2 ** 63)
        config = TestConfig(WideChooser, max_iterations=1)
        draw = RandomStrategy(seed=1) if strategy == "random" else DfsStrategy()
        draw.prepare_iteration()
        result = BugFindingRuntime(draw).execute(WideChooser)
        assert result.status == "ok"
        (kind, value), = result.trace.decisions[1:]
        assert kind == "int" and 0 <= value < 2 ** 63
        again = ScheduleTrace.from_pairs(result.trace.to_pairs())
        assert again == result.trace
        assert again.fingerprint() == result.trace.fingerprint()
        assert not replay_trace(config, again).diverged


class TestParserEdges:
    def test_comments_are_skipped(self):
        program = parse_program(
            """
            // a machine with comments
            machine m {
                void init() {
                    int x; // trailing comment
                    x := 1;
                }
                transitions { init: eNever -> init; }
            }
            """
        )
        assert "m" in program.machines

    def test_missing_semicolon_reported(self):
        with pytest.raises(ParseError):
            parse_program("machine m { void init() { int x x := 1; } }")

    def test_machine_without_methods_rejected(self):
        with pytest.raises(ParseError, match="no methods"):
            parse_program("machine empty { }")


class TestInterpreterEdges:
    def test_unbound_send_target_is_error(self):
        program = parse_program(
            """
            machine bad {
                void init() {
                    int x;
                    x := 5;
                    send x eFoo(0);
                }
                transitions { init: eNever -> init; }
            }
            """
        )
        interp = Interpreter(program, instances=["bad"])
        error = interp.run()
        assert error is not None and "not a machine" in error

    def test_halted_queue_drops_messages(self):
        program = parse_program(
            """
            machine a {
                void init() {
                    machine other;
                    other := create b();
                    send other eGo(1);
                    send other eGo(2);
                }
                transitions { init: eNever -> init; }
            }
            machine b {
                void init() { }
                void go(int payload) { }
                transitions { init: eGo -> go; go: eGo -> go; }
            }
            """
        )
        interp = Interpreter(program, instances=["a"])
        assert interp.run() is None


class TestAnalysisEdges:
    def test_diagnostics_render(self):
        diag = AnalysisDiagnostic(
            kind="ownership-violation",
            machine="m",
            method="f",
            node="<n3>",
            variable="x",
            condition=1,
            message="retained",
        )
        text = str(diag)
        assert "m.f" in text and "condition 1" in text
        report = AnalysisReport(program="p", diagnostics=[diag])
        assert not report.verified
        assert "1 potential race" in str(report)

    def test_empty_machine_program_verifies(self):
        program = parse_program(
            """
            machine quiet {
                void init() { }
                transitions { init: eNever -> init; }
            }
            """
        )
        analysis = analyze_program(program)
        assert analysis.verified

    def test_driver_none_for_missing_init(self):
        program = parse_program(
            """
            machine quiet {
                void init() { }
                transitions { init: eNever -> init; }
            }
            """
        )
        program.machines["quiet"].initial = "does_not_exist"
        assert build_driver(program, "quiet") is None

    def test_frontend_rejects_try(self):
        class TryUser(Machine):
            class S(State):
                initial = True
                entry = "go"

            def go(self):
                try:
                    self.halt()
                except Exception:
                    pass

        with pytest.raises(FrontendError):
            lower_machines([TryUser])

    def test_frontend_handles_fstrings_and_log(self):
        class Logger(Machine):
            class S(State):
                initial = True
                entry = "go"

            def go(self):
                value = 3
                self.log(f"value is {value}")
                self.halt()

        program = lower_machines([Logger])
        assert analyze_program(program).verified


class TestStrategyEdges:
    def test_dfs_with_single_option_spaces(self):
        dfs = DfsStrategy()
        runs = 0
        while dfs.prepare_iteration() and runs < 10:
            runs += 1
            for _ in range(5):
                assert dfs.pick_int(1) == 0
        assert runs == 1  # no branching: exactly one schedule

    def test_pct_and_delay_always_pick_enabled(self):
        from repro import DelayBoundingStrategy, PctStrategy
        from repro.core.events import MachineId

        enabled = [MachineId(i, f"m{i}") for i in range(3)]
        for strategy in (PctStrategy(seed=1), DelayBoundingStrategy(seed=1)):
            strategy.prepare_iteration()
            for _ in range(20):
                assert strategy.pick_machine(enabled, enabled[0]) in enabled
