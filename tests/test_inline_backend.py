"""Tests for the single-thread continuation back-end (``workers="inline"``).

Cross-backend trace parity lives in ``test_runtime_reuse.py``; this file
covers what is specific to the inline runtime: the handler-to-coroutine
compiler (helper chains, closures, keyword arguments, failure modes),
cancellation unwind semantics (user ``try/finally`` blocks), the
expression positions and unwinds the primitives-are-calls template must
survive (each held to the pooled carrier's trace and log), and the engine
/ portfolio / replay integrations.
"""

import pytest

from repro import (
    BugFindingRuntime,
    Campaign,
    Event,
    FairRandomStrategy,
    Machine,
    Monitor,
    RandomStrategy,
    State,
    StrategySpec,
    TestConfig,
    replay,
)
from repro.bench import get
from repro.core.continuations import (
    InlineCompileError,
    compile_inline_machine,
)

from .machines import NondetBug, Ping, RacyCounter


class EKick(Event):
    pass


class EReply(Event):
    pass


class EStop(Event):
    pass


# ---------------------------------------------------------------------------
# The handler-to-coroutine compiler
# ---------------------------------------------------------------------------
class HelperChain(Machine):
    """Scheduling primitives reached only through a chain of helper
    methods: the transitive-closure analysis must reshape every link."""

    class Init(State):
        initial = True
        entry = "boot"
        actions = {EReply: "on_reply"}

    def boot(self):
        self.replies = 0
        self.fan_out(2)

    def fan_out(self, count):
        for _ in range(count):
            self.ping_child()

    def ping_child(self):
        child = self.create_machine(Echo, self.id)
        self.send(child, EKick(self.id))

    def on_reply(self):
        self.replies += 1
        if self.replies == 2:
            self.halt()


class Echo(Machine):
    class Init(State):
        initial = True
        actions = {EKick: "on_kick"}

    def on_kick(self):
        # Keyword arguments on primitives must normalize too.
        self.send(event=EReply(self.id), target=self.payload)
        self.halt()


def _run_inline(main_cls, seed=1, max_steps=2_000, iterations=1):
    strategy = RandomStrategy(seed=seed)
    runtime = BugFindingRuntime(strategy, max_steps=max_steps, workers="inline")
    result = None
    for _ in range(iterations):
        strategy.prepare_iteration()
        result = runtime.execute(main_cls)
    return result


class TestCoroutineCompiler:
    def test_helper_chain_and_keyword_primitives(self):
        result = _run_inline(HelperChain)
        assert result.status == "ok", result.bug
        # The same program produces the same trace on the pooled backend.
        strategy = RandomStrategy(seed=1)
        strategy.prepare_iteration()
        pooled = BugFindingRuntime(strategy, workers="pool").execute(HelperChain)
        assert pooled.trace.fingerprint() == result.trace.fingerprint()

    def test_closure_handlers_compile(self):
        # Machines declared inside a function close over local names; the
        # compiler must rebind those cells in the reshaped coroutine.
        log = []

        class ELocal(Event):
            pass

        class Closer(Machine):
            class Init(State):
                initial = True
                entry = "go"
                actions = {ELocal: "noted"}

            def go(self):
                log.append("sent")
                self.send(self.id, ELocal())

            def noted(self):
                log.append("noted")
                self.halt()

        result = _run_inline(Closer)
        assert result.status == "ok", result.bug
        assert log == ["sent", "noted"]

    def test_compile_is_per_class_and_idempotent(self):
        compile_inline_machine(HelperChain)
        first = HelperChain._inline__boot
        compile_inline_machine(HelperChain)
        assert HelperChain._inline__boot is first
        # Subclasses compile separately (most-derived resolution).
        assert "_inline_ready" not in Echo.__dict__ or Echo is not HelperChain

    def test_send_inside_lambda_is_rejected(self):
        class Lambdaist(Machine):
            class Init(State):
                initial = True
                entry = "go"

            def go(self):
                fire = lambda: self.send(self.id, EKick())  # noqa: E731
                fire()

        with pytest.raises(InlineCompileError, match="lambda"):
            compile_inline_machine(Lambdaist)

    def test_generator_handler_is_rejected(self):
        class Generatorist(Machine):
            class Init(State):
                initial = True
                entry = "go"

            def go(self):
                self.send(self.id, EKick())
                yield  # pragma: no cover - never driven

        with pytest.raises(InlineCompileError, match="generator"):
            compile_inline_machine(Generatorist)

    def test_starred_primitive_arguments_are_rejected(self):
        class Splatter(Machine):
            class Init(State):
                initial = True
                entry = "go"

            def go(self):
                args = (self.id, EKick())
                self.send(*args)

        with pytest.raises(InlineCompileError, match="args"):
            compile_inline_machine(Splatter)

    def test_closure_cells_stay_live_after_compilation(self):
        # The compiled coroutine must share the original closure cells:
        # a free variable rebound after the first inline execution is
        # seen by later executions, exactly as the threaded backends see
        # it through the plain method.
        limit_box = {}

        def make_machine(limit):
            class Counter(Machine):
                class Init(State):
                    initial = True
                    entry = "go"

                def go(self):
                    for _ in range(limit):
                        self.send(self.id, EKick())
                    limit_box["seen"] = limit
                    self.halt()

            def rebind(new):
                nonlocal limit
                limit = new

            return Counter, rebind

        Counter, rebind = make_machine(1)
        first = _run_inline(Counter)
        assert first.status == "ok" and limit_box["seen"] == 1
        rebind(3)
        second = _run_inline(Counter)
        assert second.status == "ok" and limit_box["seen"] == 3

    def test_uncompilable_class_created_mid_execution_is_a_hard_error(self):
        # A compile failure for a machine created *during* an inline
        # execution must surface as InlineCompileError from execute(),
        # not be misreported as a bug in the program under test.
        class BadChild(Machine):
            class Init(State):
                initial = True
                entry = "go"

            def go(self):
                burst = lambda: self.send(self.id, EKick())  # noqa: E731
                burst()

        class Parent(Machine):
            class Init(State):
                initial = True
                entry = "go"

            def go(self):
                self.create_machine(BadChild)

        strategy = RandomStrategy(seed=0)
        runtime = BugFindingRuntime(strategy, workers="inline")
        strategy.prepare_iteration()
        with pytest.raises(InlineCompileError, match="lambda"):
            runtime.execute(Parent)
        # The failed execution was unwound; the runtime is reusable.
        strategy.prepare_iteration()
        assert runtime.execute(Ping).status == "ok"

    def test_plain_handlers_pay_no_reshaping(self):
        compile_inline_machine(NondetBug)
        # nondet never transfers control, so NondetBug has no coroutines.
        assert not any(
            name.startswith("_inline__") for name in vars(NondetBug)
        )
        result = _run_inline(NondetBug, seed=2, iterations=20)
        assert result is not None


# ---------------------------------------------------------------------------
# Cancellation / unwind semantics
# ---------------------------------------------------------------------------
class TestInlineUnwind:
    def test_finally_blocks_run_when_execution_is_cut_short(self):
        log = []

        class EGo(Event):
            pass

        class Careful(Machine):
            class Init(State):
                initial = True
                entry = "go"
                actions = {EGo: "spin"}

            def go(self):
                self.send(self.id, EGo())

            def spin(self):
                try:
                    self.send(self.id, EGo())
                finally:
                    log.append("unwound")

        strategy = RandomStrategy(seed=0)
        runtime = BugFindingRuntime(strategy, max_steps=30, workers="inline")
        strategy.prepare_iteration()
        result = runtime.execute(Careful)
        assert result.status == "depth-bound"
        # The machine suspended inside its try block was unwound with
        # ExecutionCanceled, running the finally — the same shape the
        # threaded back-ends produce when cancellation wakes workers.
        assert "unwound" in log

    def test_assertion_inside_helper_reports_the_machine(self):
        class Fused(Machine):
            class Init(State):
                initial = True
                entry = "go"

            def go(self):
                self.detonate()

            def detonate(self):
                self.send(self.id, EKick())
                self.assert_that(False, "boom")

        result = _run_inline(Fused)
        assert result.buggy
        assert result.bug.kind == "assertion-failure"
        assert "boom" in result.bug.message


# ---------------------------------------------------------------------------
# Primitives are calls: the template, position by position, on both carriers
# ---------------------------------------------------------------------------
CARRIERS = ("inline", "pool")
SEEDS = range(8)


def _run_on(workers, main_cls, seed, max_steps=2_000, **kwargs):
    strategy = RandomStrategy(seed=seed)
    runtime = BugFindingRuntime(
        strategy, max_steps=max_steps, workers=workers, **kwargs
    )
    strategy.prepare_iteration()
    return runtime.execute(main_cls)


def _on_both(make, seed, **kwargs):
    """Run the program ``make(log)`` builds on each carrier; the traces and
    what the handlers logged must not tell the carriers apart.  Returns
    the (shared) result and log."""
    outcomes = []
    for workers in CARRIERS:
        log = []
        result = _run_on(workers, make(log), seed, **kwargs)
        outcomes.append((result.status, result.trace.fingerprint(), log))
    assert outcomes[0] == outcomes[1], seed
    return result, log


class Leaf(Machine):
    """A child with a scheduling point of its own, so creations interleave."""

    class Init(State):
        initial = True
        entry = "boot"
        actions = {EStop: "stop"}

    def boot(self):
        self.send(self.id, EStop())

    def stop(self):
        self.halt()


class OtherLeaf(Leaf):
    pass


class TestPrimitivesAreCalls:
    def test_expression_positions(self):
        def make(log):
            class Positions(Machine):
                class Init(State):
                    initial = True
                    entry = "go"

                def go(self):
                    flag = self.nondet()
                    a = self.create_machine(Leaf) if flag else self.create_machine(OtherLeaf)
                    ids = [self.create_machine(Leaf), self.create_machine(OtherLeaf)]
                    noted = self.note(self.create_machine(Leaf), self.send(a, EStop()))
                    label = f"<{self.create_machine(OtherLeaf)}|{self.send(a, EStop())}>"
                    made = self.outer()
                    self.send(made, EStop())
                    log.append((flag, repr(a), [repr(i) for i in ids], noted, label, repr(made)))

                def note(self, mid, sent):  # plain: never reshaped
                    return (repr(mid), sent)

                def outer(self):
                    return self.inner()

                def inner(self):
                    return self.create_machine(Leaf)

            return Positions

        seen = set()
        for seed in SEEDS:
            result, ((flag, a, ids, noted, label, made),) = _on_both(make, seed)
            assert result.status == "ok", result.bug
            # Creation order is evaluation order; a send evaluates to None.
            first = "Leaf(1)" if flag else "OtherLeaf(1)"
            assert (a, ids) == (first, ["Leaf(2)", "OtherLeaf(3)"])
            assert noted == ("Leaf(4)", None)
            assert (label, made) == ("<OtherLeaf(5)|None>", "Leaf(6)")
            seen.add(flag)
        assert seen == {True, False}

    def test_a_local_named_like_the_choice_variable_is_left_alone(self):
        def make(log):
            class Shadow(Machine):
                class Init(State):
                    initial = True
                    entry = "go"

                def go(self):
                    _choice = 41
                    _choice_ = 1
                    child = self.create_machine(Leaf)
                    self.send(child, EStop())
                    log.append(_choice + _choice_)

            return Shadow

        for seed in SEEDS:
            result, log = _on_both(make, seed)
            assert result.status == "ok" and log == [42], result.bug

    def test_depth_bound_unwinds_through_the_call_site(self):
        def make(log):
            class Spin(Machine):
                class Init(State):
                    initial = True
                    entry = "spin"
                    actions = {EKick: "spin"}

                def spin(self):
                    try:
                        self.send(self.id, EKick())
                        log.append("returned")
                    except Exception:
                        log.append("caught")
                        raise
                    finally:
                        log.append("finally")

            return Spin

        result, log = _on_both(make, seed=0, max_steps=30)
        assert result.status == "depth-bound"
        assert "caught" not in log
        # The send that hit the bound never returned; its finally ran.
        assert log[-3:] == ["returned", "finally", "finally"]
        assert log.count("finally") == log.count("returned") + 1

    def test_monitor_assertion_unwinds_through_the_call_site(self):
        class Third(Monitor):
            observes = (EKick,)

            class Counting(State):
                initial = True
                entry = "setup"
                actions = {EKick: "count"}

            def setup(self):
                self.seen = 0

            def count(self):
                self.seen += 1
                self.assert_that(self.seen < 3, "third kick")

        def make(log):
            class Kicker(Machine):
                class Init(State):
                    initial = True
                    entry = "kick"
                    actions = {EKick: "kick"}

                def kick(self):
                    try:
                        self.send(self.id, EKick())
                        log.append("returned")
                    except Exception as exc:
                        log.append(f"caught {type(exc).__name__}")
                        raise
                    finally:
                        log.append("finally")

            return Kicker

        result, log = _on_both(make, seed=0, monitors=[Third])
        assert result.buggy and result.bug.kind == "monitor"
        assert "third kick" in result.bug.message
        assert log[-2:] == ["caught MonitorError", "finally"]
        assert log.count("returned") == 2

    def test_cancellation_unwinds_through_the_call_site(self):
        def make(log):
            class Bomb(Machine):
                class Init(State):
                    initial = True
                    actions = {EKick: "boom"}

                def boom(self):
                    self.assert_that(False, "boom")

            class Waiter(Machine):
                class Init(State):
                    initial = True
                    entry = "go"

                def go(self):
                    bomb = self.create_machine(Bomb)
                    try:
                        self.send(bomb, EKick())
                        log.append("returned")
                    except Exception:
                        log.append("caught")
                    finally:
                        log.append("finally")

            return Waiter

        logs = set()
        for seed in SEEDS:
            result, log = _on_both(make, seed)
            assert result.buggy and "boom" in result.bug.message
            logs.add(tuple(log))
        # Either the send returned and the bomb went off later, or the
        # waiter was suspended in it when the execution was canceled.
        assert logs == {("returned", "finally"), ("finally",)}


class TestUncompilableClassMidExecution:
    """A class created mid-execution that does not compile ends the
    execution with ``InlineCompileError`` — from ``execute()``, after every
    machine has unwound — whatever the creating handler catches."""

    @staticmethod
    def make(log):
        class BadChild(Machine):
            class Init(State):
                initial = True
                entry = "go"

            def go(self):
                burst = lambda: self.send(self.id, EKick())  # noqa: E731
                burst()

        class Sibling(Machine):
            class Init(State):
                initial = True
                actions = {EKick: "on_kick"}

            def on_kick(self):
                try:
                    self.send(self.payload, EReply())
                    log.append("sibling returned")
                finally:
                    log.append("sibling finally")

        class Parent(Machine):
            class Init(State):
                initial = True
                entry = "go"
                actions = {EReply: "on_reply"}

            def go(self):
                self.send(self.create_machine(Sibling), EKick(self.id))

            def on_reply(self):
                try:
                    self.create_machine(BadChild)
                except Exception:
                    log.append("swallowed")

        return Parent

    def test_inline_raises_after_unwinding_everyone(self):
        logs = set()
        for seed in SEEDS:
            log = []
            with pytest.raises(InlineCompileError, match="lambda"):
                _run_on("inline", self.make(log), seed)
            logs.add(tuple(log))
        # Never swallowed; a sibling suspended in its send ran its finally.
        assert logs == {("sibling returned", "sibling finally"), ("sibling finally",)}

    def test_auto_restarts_on_the_pool(self):
        def campaign(workers):
            report = Campaign(
                TestConfig(
                    self.make([]),
                    max_iterations=10,
                    time_limit=30.0,
                    stop_on_first_bug=False,
                    workers=workers,
                    record_traces=True,
                ),
                strategy=RandomStrategy(seed=3),
            ).run()
            return report

        auto, pool = campaign("auto"), campaign("pool")
        assert auto.effective_backend == pool.effective_backend == "pool"
        assert auto.iterations == pool.iterations == 10
        assert auto.total_steps == pool.total_steps
        assert auto.total_scheduling_points == pool.total_scheduling_points


# ---------------------------------------------------------------------------
# Integrations
# ---------------------------------------------------------------------------
class TestInlineIntegrations:
    def test_campaign_with_inline_backend(self):
        report = Campaign(
            TestConfig(
                RacyCounter,
                max_iterations=500,
                time_limit=60.0,
                max_steps=2_000,
                workers="inline",
            ),
            strategy=RandomStrategy(seed=3),
        ).run()
        assert report.bug_found
        replayed = replay(RacyCounter, report.first_bug.trace, workers="inline")
        assert replayed.buggy and replayed.diverged is False

    def test_live_strategy_campaign_accepts_inline(self):
        engine = Campaign(
            TestConfig(
                Ping,
                max_iterations=5,
                time_limit=30,
                workers="inline",
                stop_on_first_bug=False,
            ),
            strategy=RandomStrategy(seed=9),
        )
        report = engine.run()
        assert report.iterations == 5
        assert not report.bug_found

    def test_portfolio_with_inline_runtime_workers(self):
        campaign = Campaign(
            TestConfig(
                RacyCounter,
                specs=[StrategySpec("random", {"seed": 3})],
                max_iterations=500,
                time_limit=60,
                max_steps=2_000,
                workers="inline",
            )
        )
        report = campaign.portfolio()
        assert report.first_bug is not None
        replayed = campaign.replay()
        assert replayed is not None and replayed.buggy
        assert replayed.diverged is False

    def test_liveness_temperature_fires_inline_and_replays(self):
        bench = get("TokenRing")
        report = Campaign(
            TestConfig(
                bench.buggy.main,
                max_iterations=50,
                time_limit=60.0,
                max_steps=5_000,
                workers="inline",
                monitors=bench.buggy.monitors,
                max_hot_steps=150,
            ),
            strategy=FairRandomStrategy(seed=3),
        ).run()
        assert report.bug_found
        assert report.first_bug.kind == "liveness"
        replayed = replay(
            bench.buggy.main, report.first_bug.trace, workers="inline",
            monitors=bench.buggy.monitors, max_hot_steps=150,
            max_steps=5_000,
        )
        assert replayed.buggy and replayed.diverged is False
        assert replayed.bug.kind == "liveness"

    def test_chess_runtime_rejects_inline(self):
        from repro.chess import ChessRuntime

        with pytest.raises(ValueError, match="inline"):
            ChessRuntime(RandomStrategy(seed=0), workers="inline")


# ---------------------------------------------------------------------------
# One dispatch table: a compiled class stays plain everywhere but inline
# ---------------------------------------------------------------------------
def _relay_twin():
    """A fresh relay program (new classes, new handler functions): a
    sending action, a sending exit handler, a create, and a halting entry."""

    class RelayPeer(Machine):
        class Init(State):
            initial = True
            actions = {EKick: "on_kick"}
            transitions = {EStop: "Gone"}

        class Gone(State):
            entry = "bye"

        def on_kick(self):
            self.send(self.payload, EReply())

        def bye(self):
            self.halt()

    class Relay(Machine):
        sends = 8  # three kicks and replies, two stops

        class Init(State):
            initial = True
            entry = "boot"
            exit = "leave"
            actions = {EReply: "on_reply"}
            transitions = {EStop: "Done"}

        class Done(State):
            entry = "finish"

        def boot(self):
            self.peer = self.create_machine(RelayPeer)
            self.replies = 0
            self.send(self.peer, EKick(self.id))

        def on_reply(self):
            self.replies += 1
            if self.replies < 3:
                self.send(self.peer, EKick(self.id))
            else:
                self.send(self.id, EStop())

        def leave(self):
            self.send(self.peer, EStop())

        def finish(self):
            self.halt()

    return Relay


class TestCompiledClassStaysPlain:
    def test_pool_chess_and_production_never_see_a_coroutine(self, monkeypatch):
        from repro import Runtime
        from repro.chess import ChessRuntime
        from repro.core.machine import Machine as Base

        compiled, twin = _relay_twin(), _relay_twin()
        inline = _run_on("inline", compiled, seed=5)
        assert inline.status == "ok", inline.bug
        init = compiled._state_infos["Init"]
        assert init.exit_co is not None and init.entry_co is not None
        assert init.dispatch[EReply][2] is not None
        assert "_inline_ready" not in twin.__dict__

        returned = []

        def recording(method):
            def wrapper(self):
                result = method(self)
                returned.append(result)
                return result
            return wrapper

        monkeypatch.setattr(Base, "_start", recording(Base._start))
        monkeypatch.setattr(Base, "_step", recording(Base._step))

        pooled = _run_on("pool", compiled, seed=5)
        assert pooled.status == "ok", pooled.bug
        assert pooled.trace == inline.trace

        class CountingChess(ChessRuntime):
            def reset(self):
                super().reset()
                self.sends = 0

            def send(self, target, event, sender=None):
                self.sends += 1
                super().send(target, event, sender=sender)

        def chess(main_cls):
            strategy = RandomStrategy(seed=5)
            strategy.prepare_iteration()
            runtime = CountingChess(strategy, race_detection=True)
            result = runtime.execute(main_cls)
            assert result.status == "ok", result.bug
            clocks = {mid: clock.clocks for mid, clock in runtime._clocks.items()}
            return runtime.sends, len(runtime.races), clocks, result.trace

        # CHESS's send override ran for every send of the compiled class,
        # exactly as for the twin that was never compiled.
        assert chess(compiled) == chess(twin)
        assert chess(compiled)[0] == compiled.sends

        production = Runtime(seed=5)
        production.run(compiled).join()
        assert all(machine.is_halted for machine in production.machines)

        assert returned and all(r is True or r is False for r in returned)
