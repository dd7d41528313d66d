"""Tests for the specification-monitor subsystem: hot/cold liveness
monitors, temperature-based livelock detection under fair schedules,
safety monitors mirrored at scheduling points, and the determinism
contracts (monitors never perturb strategy decisions; the inline and
pooled carriers produce bit-identical traces with monitors attached — the
carrier contract of tests/test_runtime_reuse.py extended to monitors)."""

import pytest

from repro import (
    BugFindingRuntime,
    Campaign,
    DfsStrategy,
    EMachineHalted,
    Event,
    FairRandomStrategy,
    LivenessError,
    Machine,
    MachineDeclarationError,
    MachineId,
    Monitor,
    MonitorError,
    PctStrategy,
    PSharpError,
    RandomStrategy,
    ReplayStrategy,
    ScheduleTrace,
    State,
    StrategySpec,
    TestConfig,
    cold,
    hot,
    replay,
)
from repro.bench import get
from repro.testing import strategy_names
from repro.testing.monitors import has_hot_states

from .machines import Ping, SelfLoop


class EReq(Event):
    pass


class EGrant(Event):
    pass


class ESpin(Event):
    pass


class ProgressMonitor(Monitor):
    """Hot while a request is outstanding, cold once granted."""

    observes = (EReq, EGrant)

    @cold
    class Satisfied(State):
        initial = True
        transitions = {EReq: "Starved"}
        ignored = (EGrant,)

    @hot
    class Starved(State):
        transitions = {EGrant: "Satisfied"}
        ignored = (EReq,)


class Spinner(Machine):
    """Requests, then spins forever without granting: a pure livelock."""

    class Init(State):
        initial = True
        entry = "go"
        actions = {ESpin: "again"}
        ignored = (EReq,)

    def go(self):
        self.send(self.id, EReq())
        self.send(self.id, ESpin())

    def again(self):
        self.send(self.id, ESpin())


class ForgetfulServer(Machine):
    """Requests and terminates without ever granting: hot at termination."""

    class Init(State):
        initial = True
        entry = "go"
        ignored = (EReq,)

    def go(self):
        self.send(self.id, EReq())
        self.halt()


def _run_once(main_cls, strategy, **kwargs):
    strategy.prepare_iteration()
    return BugFindingRuntime(strategy, **kwargs).execute(main_cls)


class TestMonitorDeclarations:
    def test_hot_cold_markers_set_temperature(self):
        infos = ProgressMonitor._state_infos
        assert infos["Starved"].temperature == "hot"
        assert infos["Satisfied"].temperature == "cold"
        assert has_hot_states(ProgressMonitor)

    def test_safety_only_monitor_has_no_hot_states(self):
        raft = get("Raft")
        assert not has_hot_states(raft.buggy.monitors[0])

    def test_monitors_cannot_defer(self):
        with pytest.raises(MachineDeclarationError, match="defer"):

            class Deferring(Monitor):
                class Init(State):
                    initial = True
                    deferred = (EReq,)

    def test_monitors_are_passive(self):
        strategy = RandomStrategy(seed=0)
        strategy.prepare_iteration()
        runtime = BugFindingRuntime(strategy, monitors=[ProgressMonitor])
        runtime.execute(Ping)
        instance = runtime._monitors[0]
        with pytest.raises(PSharpError, match="passive"):
            instance.send(None, EReq())
        with pytest.raises(PSharpError, match="passive"):
            instance.create_machine(Ping)
        with pytest.raises(PSharpError, match="deterministic"):
            instance.nondet()

    def test_non_monitor_class_rejected(self):
        with pytest.raises(ValueError, match="Monitor subclasses"):
            BugFindingRuntime(RandomStrategy(seed=0), monitors=[Ping])


class TestTemperatureLiveness:
    def test_hot_monitor_reports_liveness_under_fair_strategy(self):
        result = _run_once(
            Spinner, FairRandomStrategy(seed=1),
            max_steps=5_000, monitors=[ProgressMonitor], max_hot_steps=100,
        )
        assert result.status == "bug"
        bug = result.bug
        assert bug.kind == "liveness"
        # Satellite: the report names the offending monitor, its hot
        # state, and the step counts — actionable, not "depth bound
        # exceeded".
        assert "ProgressMonitor" in bug.message
        assert "Starved" in bug.message
        assert "101 fair steps" in bug.message
        assert isinstance(bug.exception, LivenessError)
        assert bug.exception.monitor == "ProgressMonitor"
        assert bug.exception.state == "Starved"
        assert bug.step > 0
        # Found via temperature, far below the depth bound.
        assert result.steps < 5_000

    def test_temperature_disabled_under_unfair_strategy(self):
        # DFS starving the cooling machine must not yield liveness bugs.
        result = _run_once(
            Spinner, DfsStrategy(),
            max_steps=400, monitors=[ProgressMonitor], max_hot_steps=100,
        )
        assert result.status == "depth-bound"
        assert result.bug is None

    def test_hot_at_termination_is_reported_regardless_of_fairness(self):
        for strategy in (RandomStrategy(seed=2), DfsStrategy()):
            result = _run_once(
                ForgetfulServer, strategy, monitors=[ProgressMonitor],
            )
            assert result.status == "bug"
            assert result.bug.kind == "liveness"
            assert "termination" in result.bug.message

    def test_replay_defers_temperature_to_the_recorded_schedule(self):
        # A safety bug found under an *unfair* strategy (temperature off)
        # while the monitor sat hot: replaying with the same monitors and
        # a tight threshold must reproduce the recorded bug, not race the
        # schedule to a fresh liveness report mid-replay.
        class HotThenCrash(Machine):
            class Init(State):
                initial = True
                entry = "go"
                actions = {ESpin: "again"}
                ignored = (EReq,)

            def go(self):
                self.send(self.id, EReq())  # monitor goes hot, stays hot
                self.spins = 0
                self.send(self.id, ESpin())

            def again(self):
                self.spins += 1
                if self.spins >= 30:
                    self.assert_that(False, "seeded safety bug")
                self.send(self.id, ESpin())

        found = _run_once(
            HotThenCrash, DfsStrategy(),
            max_steps=5_000, monitors=[ProgressMonitor], max_hot_steps=5,
        )
        assert found.buggy and found.bug.kind == "assertion-failure"
        replayed = replay(
            HotThenCrash, found.trace, max_steps=5_000,
            monitors=[ProgressMonitor], max_hot_steps=5,
        )
        assert replayed.buggy and replayed.diverged is False
        assert replayed.bug.kind == "assertion-failure"
        assert replayed.trace == found.trace

    def test_monitor_liveness_bug_replays_bit_identical_across_backends(self):
        found = _run_once(
            Spinner, FairRandomStrategy(seed=1),
            max_steps=5_000, monitors=[ProgressMonitor], max_hot_steps=100,
        )
        assert found.buggy
        for mode in ("inline", "pool"):
            replayed = replay(
                Spinner, found.trace, max_steps=5_000, workers=mode,
                monitors=[ProgressMonitor], max_hot_steps=100,
            )
            assert replayed.buggy and replayed.diverged is False
            assert replayed.bug.kind == "liveness"
            assert replayed.bug.message == found.bug.message
            assert replayed.trace == found.trace  # bit-identical, per back-end


class TestDepthBoundFairnessGate:
    """Satellite bugfix: the depth-bound cutoff is only a liveness report
    when the driving strategy is fair; DFS/PCT campaigns get a plain
    "depth-bound" status instead of spurious liveness bugs."""

    @pytest.mark.parametrize(
        "strategy_factory",
        [lambda: DfsStrategy(), lambda: PctStrategy(seed=4, depth=3)],
        ids=["dfs", "pct"],
    )
    def test_unfair_strategy_never_promotes_depth_bound(self, strategy_factory):
        result = _run_once(
            SelfLoop, strategy_factory(), max_steps=200, livelock_as_bug=True,
        )
        assert result.status == "depth-bound"
        assert result.bug is None

    def test_fair_strategy_still_promotes_depth_bound(self):
        result = _run_once(
            SelfLoop, RandomStrategy(seed=0), max_steps=200, livelock_as_bug=True,
        )
        assert result.buggy
        assert result.bug.kind == "liveness"
        # Satellite: the heuristic report names the last scheduled machine
        # and the step count.
        assert "SelfLoop" in result.bug.message
        assert result.bug.step == 201
        assert result.bug.exception.step == 201

    def test_diverged_replay_does_not_fabricate_livelock(self):
        # Replaying a short prefix with livelock_as_bug: once the recorded
        # decisions run out, the unfair first-enabled fallback drives the
        # run to max_steps — that starvation must not become a liveness
        # bug the recorded run never reported.
        prefix = ScheduleTrace([("sched", 0)])
        result = replay(SelfLoop, prefix, max_steps=200, livelock_as_bug=True)
        assert result.status == "depth-bound"
        assert result.bug is None
        assert result.diverged is True

    def test_faithful_replay_still_reproduces_heuristic_liveness(self):
        found = _run_once(
            SelfLoop, RandomStrategy(seed=0), max_steps=200, livelock_as_bug=True,
        )
        assert found.buggy and found.bug.kind == "liveness"
        replayed = replay(SelfLoop, found.trace, max_steps=200, livelock_as_bug=True)
        assert replayed.buggy and replayed.diverged is False
        assert replayed.bug.kind == "liveness"

    def test_armed_liveness_monitors_supersede_depth_bound_heuristic(self):
        # Temperature armed (fair strategy, threshold below the bound) and
        # the monitor stays cold through the whole spin: reaching the
        # depth bound proves the spin benign — no heuristic bug.
        class GrantedSpinner(Spinner):
            class Init(State):
                initial = True
                entry = "go"
                actions = {ESpin: "again"}
                ignored = (EReq, EGrant)

            def go(self):
                self.send(self.id, EReq())
                self.send(self.id, EGrant())  # obligation met: monitor cools
                self.send(self.id, ESpin())

        result = _run_once(
            GrantedSpinner, FairRandomStrategy(seed=3), max_steps=300,
            livelock_as_bug=True, monitors=[ProgressMonitor],
            max_hot_steps=100,
        )
        assert result.status == "depth-bound"
        assert result.bug is None

    def test_unarmable_threshold_does_not_disable_livelock_reporting(self):
        # A threshold at or above max_steps can never fire, so attaching
        # the monitor must not silently swallow livelock_as_bug — the
        # heuristic stays on as the fallback detector.
        result = _run_once(
            Spinner, FairRandomStrategy(seed=3), max_steps=300,
            livelock_as_bug=True, monitors=[ProgressMonitor],
            max_hot_steps=10_000,
        )
        assert result.buggy
        assert result.bug.kind == "liveness"
        assert "depth bound" in result.bug.message


class TestSafetyMonitors:
    def test_raft_election_safety_monitor_fires_before_checker(self):
        raft = get("Raft")
        engine = Campaign(
            TestConfig(
                raft.buggy.main,
                max_iterations=3_000,
                max_steps=5_000,
                time_limit=120,
                monitors=raft.buggy.monitors,
            ),
            strategy=RandomStrategy(seed=7),
        )
        report = engine.run()
        assert report.bug_found
        # The monitor observes ELeaderElected at *send* time, so it always
        # beats the SafetyChecker machine's dequeue-time assertion.
        assert report.first_bug.kind == "monitor"
        assert "ElectionSafetyMonitor" in report.first_bug.message
        assert "two leaders" in report.first_bug.message

    def test_two_phase_commit_quorum_monitor_fires_at_coordinator_send(self):
        tpc = get("TwoPhaseCommit")
        engine = Campaign(
            TestConfig(
                tpc.buggy.main,
                max_iterations=3_000,
                max_steps=5_000,
                time_limit=120,
                monitors=tpc.buggy.monitors,
            ),
            strategy=RandomStrategy(seed=1),
        )
        report = engine.run()
        assert report.bug_found
        assert report.first_bug.kind == "monitor"
        assert "AtomicityMonitor" in report.first_bug.message
        assert "quorum" in report.first_bug.message

    @pytest.mark.parametrize("name", ["Raft", "TwoPhaseCommit"])
    def test_correct_variants_satisfy_their_monitors(self, name):
        benchmark = get(name)
        engine = Campaign(
            TestConfig(
                benchmark.correct.main,
                max_iterations=25,
                max_steps=5_000,
                time_limit=60,
                stop_on_first_bug=False,
                monitors=benchmark.correct.monitors,
            ),
            strategy=RandomStrategy(seed=11),
        )
        report = engine.run()
        assert not report.bug_found, str(report.first_bug)
        assert report.iterations == 25


class TestMonitorDeterminism:
    """Satellite: monitor callbacks must not perturb strategy decision
    sequences, and traces stay bit-identical across worker back-ends."""

    def _decision_traces(self, main_cls, seed, mode, monitors, iterations=5):
        strategy = RandomStrategy(seed=seed)
        runtime = BugFindingRuntime(
            strategy, max_steps=5_000, workers=mode, monitors=monitors,
        )
        traces = []
        for _ in range(iterations):
            strategy.prepare_iteration()
            traces.append(runtime.execute(main_cls).trace)
        return traces

    def test_monitors_do_not_perturb_strategy_decisions(self):
        raft = get("Raft")
        bare = self._decision_traces(raft.correct.main, 22, "pool", ())
        monitored = self._decision_traces(
            raft.correct.main, 22, "pool", raft.correct.monitors
        )
        for plain, with_spec in zip(bare, monitored):
            filtered = [d for d in with_spec.decisions if d[0] != "monitor"]
            assert filtered == plain.decisions
            # ... and the monitored run really did observe something.
            assert len(with_spec) > len(plain)

    @pytest.mark.parametrize("bench_name", ["ProcessScheduler", "TokenRing"])
    def test_pool_and_inline_traces_identical_with_monitors(self, bench_name):
        benchmark = get(bench_name)
        pool = self._decision_traces(
            benchmark.buggy.main, 17, "pool", benchmark.buggy.monitors, 3
        )
        inline = self._decision_traces(
            benchmark.buggy.main, 17, "inline", benchmark.buggy.monitors, 3
        )
        for a, b in zip(pool, inline):
            assert a == b
            assert a.decisions == b.decisions

    def test_monitor_trace_entries_round_trip_through_json(self):
        trace = ScheduleTrace([("sched", 1), ("monitor", 0), ("bool", 1)])
        assert trace.to_json() == '[["sched", 1], ["monitor", 0], ["bool", 1]]'
        restored = ScheduleTrace.from_json(trace.to_json())
        assert restored == trace

    def test_replay_strategy_skips_monitor_and_liveness_entries(self):
        trace = ScheduleTrace(
            [("monitor", 0), ("sched", 1), ("monitor", 1), ("liveness", 0)]
        )
        strategy = ReplayStrategy(trace)
        assert strategy._trace == [("sched", 1)]
        assert strategy.is_fair()
        # The liveness marker arms firing, but only at the recorded end.
        assert not strategy.temperature_may_fire()
        strategy.prepare_iteration()
        strategy.pick_machine([MachineId(1)], None)
        assert strategy.temperature_may_fire()
        # Without the marker, firing stays off even when exhausted.
        bare = ReplayStrategy(ScheduleTrace([("sched", 1)]))
        assert not bare.temperature_may_fire()


class TestLivenessBenchmarks:
    """The acceptance criterion: a liveness benchmark's livelock is found
    via hot-state temperature under FairRandomStrategy (not the depth
    bound) and replayed deterministically by Campaign.replay()."""

    def test_process_scheduler_livelock_found_and_replayed_by_portfolio(self):
        benchmark = get("ProcessScheduler")
        campaign = Campaign(
            TestConfig(
                benchmark.buggy.main,
                specs=[StrategySpec("fair-random", {"seed": 3})],
                max_iterations=200,
                time_limit=60,
                max_steps=2_000,
                monitors=benchmark.buggy.monitors,
                max_hot_steps=150,
            )
        )
        report = campaign.portfolio()
        assert report.bug_found
        bug = report.first_bug
        assert bug.kind == "liveness"
        assert "CpuProgressMonitor" in bug.message and "Starved" in bug.message
        assert "stayed hot" in bug.message          # temperature detection...
        assert "depth bound" not in bug.message     # ...not the blunt heuristic
        replayed = campaign.replay()
        assert replayed is not None and replayed.buggy
        assert replayed.diverged is False
        assert replayed.bug.kind == "liveness"
        assert replayed.bug.message == bug.message
        assert replayed.trace == bug.trace

    def test_token_ring_livelock_found_by_temperature(self):
        benchmark = get("TokenRing")
        engine = Campaign(
            TestConfig(
                benchmark.buggy.main,
                max_iterations=50,
                max_steps=3_000,
                time_limit=60,
                monitors=benchmark.buggy.monitors,
                max_hot_steps=300,
            ),
            strategy=FairRandomStrategy(seed=2),
        )
        report = engine.run()
        assert report.bug_found
        assert report.first_bug.kind == "liveness"
        assert "TokenCirculationMonitor" in report.first_bug.message
        assert "InFlight" in report.first_bug.message

    def test_correct_token_ring_is_benign_under_fair_schedule(self):
        # The correct ring circulates forever: with the spec attached the
        # infinite executions end as benign depth-bounds, not liveness
        # bugs — the false positive the bare heuristic would produce.
        benchmark = get("TokenRing")
        engine = Campaign(
            TestConfig(
                benchmark.correct.main,
                max_iterations=4,
                max_steps=3_000,
                time_limit=60,
                stop_on_first_bug=False,
                livelock_as_bug=True,  # heuristic suppressed by the monitor
                monitors=benchmark.correct.monitors,
                max_hot_steps=300,
            ),
            strategy=FairRandomStrategy(seed=2),
        )
        report = engine.run()
        assert not report.bug_found
        assert report.depth_bound_hits == 4


class TestFairRandomStrategy:
    def test_is_fair_and_registered(self):
        assert FairRandomStrategy(seed=0).is_fair()
        assert "fair-random" in strategy_names()

    def test_deterministic_per_seed(self):
        def run(seed):
            strategy = FairRandomStrategy(seed=seed)
            strategy.prepare_iteration()
            runtime = BugFindingRuntime(strategy, max_steps=2_000)
            return runtime.execute(get("ProcessScheduler").buggy.main).trace

        assert run(9) == run(9)
        assert run(9) != run(10)

    def test_round_robin_bias_bounds_starvation(self):
        # With bias 1.0 the strategy is pure round-robin over enabled
        # machines: every enabled machine runs within |enabled| decisions.
        strategy = FairRandomStrategy(seed=0, bias=1.0)
        strategy.prepare_iteration()
        machines = [MachineId(i) for i in range(3)]
        picks = [strategy.pick_machine(machines, machines[0]) for _ in range(9)]
        for machine in machines:
            assert picks.count(machine) == 3

    def test_bias_validation(self):
        with pytest.raises(ValueError, match="bias"):
            FairRandomStrategy(seed=0, bias=1.5)


class TestMirroringHooks:
    def test_halt_mirroring_delivers_emachinehalted(self):
        class HaltCounter(Monitor):
            observes = (EMachineHalted,)

            class Counting(State):
                initial = True
                entry = "setup"
                actions = {EMachineHalted: "on_halt"}

            def setup(self):
                self.halted = []

            def on_halt(self):
                self.halted.append(self.payload)

        strategy = RandomStrategy(seed=0)
        strategy.prepare_iteration()
        runtime = BugFindingRuntime(strategy, monitors=[HaltCounter])
        result = runtime.execute(Ping)
        assert result.status == "ok"
        # Ping halts itself and its Pong partner.
        assert len(runtime._monitors[0].halted) == 2

    def test_dequeue_mirroring_observes_delivery_order(self):
        from .machines import EPing

        class DeliveryWatcher(Monitor):
            observes_dequeue = (EPing,)

            class Counting(State):
                initial = True
                entry = "setup"
                actions = {EPing: "on_ping"}

            def setup(self):
                self.seen = 0

            def on_ping(self):
                self.seen += 1

        strategy = RandomStrategy(seed=0)
        strategy.prepare_iteration()
        runtime = BugFindingRuntime(strategy, monitors=[DeliveryWatcher])
        result = runtime.execute(Ping)
        assert result.status == "ok"
        assert runtime._monitors[0].seen == Ping.rounds

    def test_unregistered_explicit_invocation_is_noop(self):
        class Caller(Machine):
            class Init(State):
                initial = True
                entry = "go"

            def go(self):
                self.monitor(ProgressMonitor, EReq())  # not attached
                self.halt()

        result = _run_once(Caller, RandomStrategy(seed=0))
        assert result.status == "ok"

    def test_monitor_spec_defect_reported_as_monitor_bug(self):
        # An observed event the monitor's current state cannot handle is a
        # specification defect: blamed on the monitor (kind "monitor"),
        # not on the machine whose send mirrored the event.
        class HalfSpec(Monitor):
            observes = (EReq, EGrant)

            class Only(State):
                initial = True
                actions = {EReq: "noop"}  # EGrant unhandled: spec defect

            def noop(self):
                pass

        class Granter(Machine):
            class Init(State):
                initial = True
                entry = "go"
                ignored = (EReq, EGrant)

            def go(self):
                self.send(self.id, EReq())
                self.send(self.id, EGrant())
                self.halt()

        result = _run_once(Granter, RandomStrategy(seed=0), monitors=[HalfSpec])
        assert result.buggy
        assert result.bug.kind == "monitor"
        assert "HalfSpec" in result.bug.message

    def test_production_runtime_mirrors_all_hooks(self):
        # The production Runtime honors observes (send), observes_dequeue
        # (delivery) and EMachineHalted (halt) — not just send mirroring.
        from repro import Runtime
        from .machines import EPing

        class ProductionWatcher(Monitor):
            observes = (EMachineHalted,)
            observes_dequeue = (EPing,)

            class Counting(State):
                initial = True
                entry = "setup"
                actions = {EMachineHalted: "on_halt", EPing: "on_ping"}

            def setup(self):
                self.halted = 0
                self.pings = 0

            def on_halt(self):
                self.halted += 1

            def on_ping(self):
                self.pings += 1

        runtime = Runtime(seed=1)
        runtime.register_monitor(ProductionWatcher)
        runtime.run(Ping)
        runtime.join()
        watcher = runtime._monitors[0]
        assert watcher.pings == Ping.rounds
        assert watcher.halted == 2  # Ping and its Pong partner

    def test_monitor_error_detaches_for_portfolio_transport(self):
        result = _run_once(
            ForgetfulServer, RandomStrategy(seed=0), monitors=[ProgressMonitor],
        )
        detached = result.bug.detached()
        assert "ProgressMonitor" in detached.machine
        assert detached.trace == result.bug.trace


# ----------------------------------------------------------------------
# The production Runtime decides who observes an event with the same
# tables as the tester (event class -> monitor registration indices),
# rebuilt at every registration.
class EObs(Event):
    pass


class EObsChild(EObs):
    """Observed through its base: monitors list EObs only."""


class EClose(Event):
    pass


class Receiver(Machine):
    class Open(State):
        initial = True
        actions = {EObs: "noop", EObsChild: "noop", EClose: "close"}

    def noop(self):
        pass

    def close(self):
        self.halt()


class _Recorder(Monitor):
    class Recording(State):
        initial = True
        entry = "setup"
        actions = {
            EObs: "on_obs", EObsChild: "on_child", EMachineHalted: "on_halt",
        }

    def setup(self):
        self.seen = []

    def on_obs(self):
        self.seen.append("obs")

    def on_child(self):
        self.seen.append("child")

    def on_halt(self):
        self.seen.append(("halted", self.payload))


class SendRecorder(_Recorder):
    observes = (EObs, EMachineHalted)


class DequeueRecorder(_Recorder):
    observes_dequeue = (EObs,)


class LateSendRecorder(_Recorder):
    observes = (EObs,)


class TestProductionRuntimeObservers:
    def test_send_dequeue_and_halt_observers_across_registrations(self):
        from repro import Runtime

        runtime = Runtime(seed=0)
        runtime.register_monitor(SendRecorder)
        receiver = runtime.create_machine(Receiver)
        runtime.send(receiver, EObsChild())  # a subclass of an observed class
        assert runtime.wait_quiescence()
        # Registered after the first observation: the tables are rebuilt,
        # so both see what follows and neither sees what came before.
        runtime.register_monitor(DequeueRecorder)
        runtime.register_monitor(LateSendRecorder)
        runtime.send(receiver, EObs())
        runtime.send(receiver, EObsChild())
        runtime.send(receiver, EClose())
        runtime.join()
        sent, dequeued, late = runtime._monitors
        assert sent.seen == ["child", "obs", "child", ("halted", receiver)]
        assert dequeued.seen == ["obs", "child"]
        assert late.seen == ["obs", "child"]


# ----------------------------------------------------------------------
# A monitor that raised Halt keeps observing: it is halted, but monitors
# have no inbox to close, and every observation still reaches its current
# state's handlers.
class EA(Event):
    pass


class EB(Event):
    pass


class HaltsOnA(Monitor):
    observes = (EA, EB)

    class Watching(State):
        initial = True
        entry = "setup"
        actions = {EA: "on_a", EB: "on_b"}

    def setup(self):
        self.bs = []

    def on_a(self):
        self.halt()

    def on_b(self):
        self.bs.append(self.payload)


class SendsBAB(Machine):
    class Init(State):
        initial = True
        entry = "go"
        ignored = (EA, EB)

    def go(self):
        self.send(self.id, EB(1))
        self.send(self.id, EA())
        self.send(self.id, EB(2))
        self.halt()


class TestHaltedMonitor:
    @pytest.mark.parametrize("workers", ["inline", "pool"])
    def test_a_halted_monitor_keeps_observing(self, workers):
        strategy = RandomStrategy(seed=0)
        strategy.prepare_iteration()
        runtime = BugFindingRuntime(strategy, workers=workers, monitors=[HaltsOnA])
        result = runtime.execute(SendsBAB)
        assert result.status == "ok", result.bug
        monitor = runtime._monitors[0]
        assert monitor.is_halted
        assert monitor.bs == [1, 2]

    def test_a_halting_monitor_under_the_production_runtime(self):
        # The halt mirrors EMachineHalted from under the runtime lock the
        # observation holds: the lock is re-entrant, so this finishes.
        import threading

        from repro import Runtime

        runtime = Runtime(seed=0)
        runtime.register_monitor(HaltsOnA)
        runner = threading.Thread(
            target=lambda: runtime.run(SendsBAB).join(), daemon=True
        )
        runner.start()
        runner.join(timeout=10)
        assert not runner.is_alive(), "the production runtime deadlocked"
        monitor = runtime._monitors[0]
        assert monitor.is_halted
        assert monitor.bs == [1, 2]
