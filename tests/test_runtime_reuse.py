"""Tests for the two carriers: cross-carrier trace determinism, runtime
reuse via ``reset()``, and thread hygiene.

The contract under test is the acceptance criterion shared by the
single-thread runtime and ``ThreadedRuntime``: for a fixed strategy
seed, the inline and threaded carriers produce bit-identical schedule
traces — with and without specification monitors attached — so DFS
backtracking, replay, PCT semantics and monitor-based liveness detection
are provably independent of the carrier.  (``test_golden_traces.py`` pins
the same traces across commits.)
"""

import sys

import pytest

from repro import (
    BugFindingRuntime,
    Campaign,
    DfsStrategy,
    Event,
    FairRandomStrategy,
    Machine,
    PctStrategy,
    RandomStrategy,
    ScheduleTrace,
    State,
    TestConfig,
    replay,
)
from repro.bench import buggy_main, get, table2_suite
from repro.testing import ThreadedRuntime

from .machines import Ping, RacyCounter, SelfLoop

BENCH_NAMES = [b.name for b in table2_suite()]
#: The runtime class per carrier.
CARRIERS = {"inline": BugFindingRuntime, "threads": ThreadedRuntime}
BACKENDS = tuple(CARRIERS)

# Registry variants that ship specification monitors: the safety-monitor
# retrofits plus the liveness suite (hot/cold temperature detection).
MONITORED = ["Raft", "TwoPhaseCommit", "ProcessScheduler", "TokenRing"]


def _traces(main_cls, strategy, mode, iterations, max_steps=2_000,
            monitors=(), max_hot_steps=1000):
    runtime = CARRIERS[mode](
        strategy, max_steps=max_steps,
        monitors=monitors, max_hot_steps=max_hot_steps,
    )
    collected = []
    for _ in range(iterations):
        if not strategy.prepare_iteration():
            break
        collected.append(runtime.execute(main_cls).trace)
    return collected


class TestBackendTraceDeterminism:
    @pytest.mark.parametrize("bench_name", BENCH_NAMES)
    @pytest.mark.parametrize("mode", ["inline"])
    def test_backend_traces_identical_across_registry(self, bench_name, mode):
        main_cls = buggy_main(bench_name)
        threads = _traces(main_cls, RandomStrategy(seed=11), "threads", 5)
        other = _traces(main_cls, RandomStrategy(seed=11), mode, 5)
        assert len(threads) == len(other) == 5
        for a, b in zip(threads, other):
            assert a == b  # flat-array equality
            assert a.decisions == b.decisions  # tuple-level equality
            assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize("bench_name", MONITORED)
    @pytest.mark.parametrize("mode", ["inline"])
    def test_monitor_attached_traces_identical_across_backends(
        self, bench_name, mode
    ):
        # Monitor invocations and temperature firings are trace-recorded,
        # so monitored runs must stay bit-identical across back-ends too
        # (fair strategy: liveness temperature detection is armed).
        variant = get(bench_name).buggy
        kwargs = dict(
            monitors=variant.monitors, max_hot_steps=150, max_steps=5_000
        )
        threads = _traces(
            variant.main, FairRandomStrategy(seed=3), "threads", 5, **kwargs
        )
        other = _traces(
            variant.main, FairRandomStrategy(seed=3), mode, 5, **kwargs
        )
        assert len(threads) == len(other) == 5
        assert any(len(trace) for trace in threads)
        for a, b in zip(threads, other):
            assert a.decisions == b.decisions
            assert a.fingerprint() == b.fingerprint()

    @pytest.mark.parametrize(
        "strategy_factory",
        [
            lambda: RandomStrategy(seed=5),
            lambda: DfsStrategy(),
            lambda: PctStrategy(seed=5, depth=3),
        ],
        ids=["random", "dfs", "pct"],
    )
    @pytest.mark.parametrize("mode", ["inline"])
    def test_strategies_agree_between_backends(self, strategy_factory, mode):
        threads = _traces(RacyCounter, strategy_factory(), "threads", 20)
        other = _traces(RacyCounter, strategy_factory(), mode, 20)
        assert threads == other

    @pytest.mark.parametrize("found_in", BACKENDS)
    def test_bug_found_in_any_mode_replays_in_every_mode(self, found_in):
        strategy = RandomStrategy(seed=3)
        runtime = CARRIERS[found_in](strategy, max_steps=2_000)
        result = None
        for _ in range(500):
            strategy.prepare_iteration()
            result = runtime.execute(RacyCounter)
            if result.buggy:
                break
        assert result is not None and result.buggy
        for mode in BACKENDS:
            replayed = replay(RacyCounter, result.trace, runtime_factory=CARRIERS[mode])
            assert replayed.buggy and replayed.diverged is False
            assert replayed.bug.message == result.bug.message
            assert replayed.trace.fingerprint() == result.trace.fingerprint()

    def test_trace_json_wire_format_unchanged(self):
        # The flat-array encoding must serialize exactly like the old
        # list-of-tuples representation: [["sched", 1], ["bool", 0], ...].
        trace = ScheduleTrace([("sched", 1), ("bool", 0), ("int", 7)])
        assert trace.to_json() == '[["sched", 1], ["bool", 0], ["int", 7]]'
        restored = ScheduleTrace.from_json(trace.to_json())
        assert restored == trace
        assert restored.decisions == [("sched", 1), ("bool", 0), ("int", 7)]


class TestRuntimeReuse:
    """``reset()`` must repair all per-execution state, including after
    executions canceled mid-schedule (the historical stale ``_current``/
    counter bug)."""

    @pytest.mark.parametrize("mode", list(BACKENDS))
    def test_execute_twice_matches_fresh_runtime(self, mode):
        def fresh():
            strategy = RandomStrategy(seed=9)
            strategy.prepare_iteration()
            return CARRIERS[mode](strategy).execute(Ping)

        strategy = RandomStrategy(seed=9)
        runtime = CARRIERS[mode](strategy)
        strategy.prepare_iteration()
        first = runtime.execute(Ping)
        strategy = RandomStrategy(seed=9)
        runtime.strategy = strategy
        strategy.prepare_iteration()
        second = runtime.execute(Ping)

        reference = fresh()
        for result in (first, second):
            assert result.status == reference.status == "ok"
            assert result.steps == reference.steps
            assert result.scheduling_points == reference.scheduling_points
            assert result.trace == reference.trace

    @pytest.mark.parametrize("mode", list(BACKENDS))
    def test_canceled_execution_leaves_no_stale_state(self, mode):
        # A depth-bounded execution is canceled mid-schedule: workers are
        # unwound by cancellation, counters are non-zero, _current points
        # at the canceled machine.  The next execute() must start clean.
        strategy = RandomStrategy(seed=0)
        runtime = CARRIERS[mode](strategy, max_steps=50)
        strategy.prepare_iteration()
        bounded = runtime.execute(SelfLoop)
        assert bounded.status == "depth-bound"
        assert runtime._steps > 0

        strategy.prepare_iteration()
        clean = runtime.execute(Ping)
        assert clean.status == "ok"
        assert not clean.buggy
        # Counters restarted from zero (Ping's run is much shorter than
        # the 50-step bound the canceled SelfLoop execution burned).
        assert clean.steps <= 50
        assert runtime._current is not None  # last scheduled machine, this run
        assert len(runtime.machines) == 2  # Ping + Pong only, registry reset

    @pytest.mark.parametrize("mode", list(BACKENDS))
    def test_stop_check_cancellation_then_reuse(self, mode):
        stop = {"now": True}
        strategy = RandomStrategy(seed=0)
        runtime = CARRIERS[mode](
            strategy, max_steps=10**9, stop_check=lambda: stop["now"],
        )
        strategy.prepare_iteration()
        stopped = runtime.execute(SelfLoop)
        assert stopped.status == "stopped"

        stop["now"] = False
        strategy.prepare_iteration()
        ok = runtime.execute(Ping)
        assert ok.status == "ok"

    def test_buggy_then_clean_execution_reuse(self):
        strategy = RandomStrategy(seed=3)
        runtime = ThreadedRuntime(strategy)
        buggy = None
        for _ in range(500):
            strategy.prepare_iteration()
            result = runtime.execute(RacyCounter)
            if result.buggy:
                buggy = result
                break
        assert buggy is not None
        strategy.prepare_iteration()
        after = runtime.execute(Ping)
        assert after.status == "ok"
        assert after.bug is None  # the old bug does not leak into new runs

    def test_inline_canceled_execution_unwinds_generators_then_reuses(self):
        # Inline reset() regression: a depth-bounded execution leaves
        # suspended coroutine bodies behind; _run must unwind every one
        # of them (worker.gen cleared) so the next execute() starts from
        # a clean seat list.
        strategy = RandomStrategy(seed=0)
        runtime = BugFindingRuntime(strategy, max_steps=50)
        strategy.prepare_iteration()
        bounded = runtime.execute(SelfLoop)
        assert bounded.status == "depth-bound"
        assert all(w.gen is None for w in runtime._worker_list)

        strategy.prepare_iteration()
        clean = runtime.execute(Ping)
        assert clean.status == "ok"
        assert clean.steps <= 50
        assert len(runtime.machines) == 2  # Ping + Pong only, registry reset


class TestDispatchCompilation:
    def test_static_and_class_method_handlers_still_work(self):
        # The compiled dispatch calls plain methods as fn(self); anything
        # else must keep the historical getattr(self, name)() semantics.
        from repro import Event, Machine, State

        log = []

        class EKick(Event):
            pass

        class Mixed(Machine):
            class Init(State):
                initial = True
                entry = "enter_static"
                actions = {EKick: "act_class"}

            @staticmethod
            def enter_static():
                log.append("static-entry")

            @classmethod
            def act_class(cls):
                log.append(("class-action", cls.__name__))

        class Driver(Mixed):
            class Init(State):
                initial = True
                entry = "go"
                actions = {EKick: "act_class"}

            def go(self):
                log.append("driver")
                self.send(self.id, EKick())

        strategy = RandomStrategy(seed=0)
        strategy.prepare_iteration()
        result = BugFindingRuntime(strategy).execute(Driver)
        assert result.status == "ok", result.bug
        assert log == ["driver", ("class-action", "Driver")]

    def test_pct_counts_forced_points_as_steps(self):
        # The forced-decision fast path must not erase PCT's step index:
        # SelfLoop's schedule is entirely forced (one machine), yet the
        # strategy's step counter has to advance so change points can
        # land anywhere in the execution, as before the fast path.
        strategy = PctStrategy(seed=1, depth=3)
        strategy.prepare_iteration()
        runtime = BugFindingRuntime(strategy, max_steps=100)
        result = runtime.execute(SelfLoop)
        assert result.status == "depth-bound"
        assert strategy._step >= result.scheduling_points > 0


class TestTaintedRuntime:
    """A machine thread that outlives the end-of-execution barrier taints
    the runtime: reusing it would clear ``_canceled`` under the straggler
    and let it corrupt the next execution's state.  A tainted runtime
    refuses execute(); the campaign loop transparently rebuilds a fresh
    one."""

    def test_slow_unwinding_worker_taints_runtime(self):
        import time as time_module

        from repro import Event, Machine, PSharpError, State

        class EGo(Event):
            pass

        class SlowFinally(Machine):
            class Init(State):
                initial = True
                entry = "go"
                actions = {EGo: "again"}

            def go(self):
                self.create_machine(Boomer, self.id)

            def again(self):
                try:
                    # Blocks at a scheduling point inside the try; the
                    # cancellation unwind then runs the slow finally.
                    self.send(self.id, EGo())
                except BaseException:
                    time_module.sleep(0.5)
                    raise

        class Boomer(Machine):
            class Init(State):
                initial = True
                entry = "boom"

            def boom(self):
                self.send(self.payload, EGo())
                self.assert_that(False, "seeded bug")

        strategy = RandomStrategy(seed=2)
        runtime = ThreadedRuntime(strategy)
        runtime._retire_timeout = 0.05
        tainted_seen = False
        for _ in range(20):
            strategy.prepare_iteration()
            runtime.execute(SlowFinally)
            if runtime.tainted:
                tainted_seen = True
                break
        # Any schedule where Boomer's bug fires while SlowFinally sits at
        # its send scheduling point makes the cancellation unwind run the
        # slow finally, which outlives the shortened barrier.
        assert tainted_seen
        with pytest.raises(PSharpError, match="tainted"):
            runtime.execute(Ping)

    def test_campaign_recovers_from_tainted_runtime(self):
        built = []

        def counting_factory(**kwargs):
            runtime = BugFindingRuntime(**kwargs)
            runtime._retire_timeout = 0.05
            built.append(runtime)
            return runtime

        # Taint the first runtime artificially after its first execution:
        # the campaign loop must build a replacement and keep iterating.
        class TaintOnce:
            fired = False

        original_execute = BugFindingRuntime.execute

        def tainting_execute(self, main_cls, payload=None):
            result = original_execute(self, main_cls, payload)
            if not TaintOnce.fired:
                TaintOnce.fired = True
                self.tainted = True
            return result

        BugFindingRuntime.execute = tainting_execute
        try:
            report = Campaign(
                TestConfig(
                    Ping,
                    max_iterations=5,
                    time_limit=30.0,
                    stop_on_first_bug=False,
                    runtime_factory=counting_factory,
                ),
                strategy=RandomStrategy(seed=1),
            ).run()
        finally:
            BugFindingRuntime.execute = original_execute
        assert report.iterations == 5
        assert len(built) == 2  # original + post-taint replacement


class TestThreadHygiene:
    def test_no_machine_thread_outlives_its_execution(self):
        # Every execution of Lingerers ends with its last machine going
        # idle and finding nobody enabled: that thread unwinds without a
        # hand-off, and execute() must still have joined every thread of
        # the execution before it returns.
        class ENudge(Event):
            pass

        class Lingerer(Machine):
            class Init(State):
                initial = True
                ignored = (ENudge,)

        class Lingerers(Machine):
            class Init(State):
                initial = True
                entry = "go"

            def go(self):
                for _ in range(2):
                    self.send(self.create_machine(Lingerer), ENudge())

        strategy = RandomStrategy(seed=1)
        runtime = ThreadedRuntime(strategy)
        threaded = []
        for _ in range(20):
            strategy.prepare_iteration()
            result = runtime.execute(Lingerers)
            assert result.status == "ok" and not runtime.tainted
            assert len(runtime._worker_list) == 3
            assert not any(seat.thread.is_alive() for seat in runtime._worker_list)
            threaded.append(result.trace)
        inline = _traces(Lingerers, RandomStrategy(seed=1), "inline", 20)
        assert threaded == inline
        assert len({trace.fingerprint() for trace in threaded}) > 1

    def test_traces_hold_under_a_short_switch_interval(self):
        # Six machine threads, more than this host's cores, and the
        # interpreter offering to switch threads every microsecond: only
        # the scheduler's hand-off may move control, so a lost update
        # shows as a trace that differs from the inline one.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = _traces(buggy_main("Raft"), RandomStrategy(seed=4), "threads", 10)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == _traces(buggy_main("Raft"), RandomStrategy(seed=4), "inline", 10)

    def test_the_pool_is_gone(self):
        import repro.testing
        import repro.testing.runtime

        for name in ("WorkerPool", "shared_worker_pool"):
            assert not hasattr(repro.testing, name)
            assert not hasattr(repro.testing.runtime, name)
        with pytest.raises(TypeError, match="workers"):
            BugFindingRuntime(RandomStrategy(seed=0), workers="pool")
