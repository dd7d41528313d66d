"""Tests for the single-thread continuation carrier.

Cross-carrier trace parity lives in ``test_runtime_reuse.py``; this file
covers what is specific to the inline runtime: the handler-to-coroutine
compiler (helper chains, closures, keyword arguments, comprehensions and
sending lambdas, and one input per shape it refuses — each refusal naming
the method, the line and ``ThreadedRuntime``, which runs the same class),
cancellation unwind semantics (user ``try/finally`` blocks), the
expression positions and unwinds the primitives-are-calls template must
survive (each held to the threaded carrier's trace and log), and the
engine / portfolio / replay integrations.
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
from repro.testing import ThreadedRuntime

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
    runtime = BugFindingRuntime(strategy, max_steps=max_steps)
    result = None
    for _ in range(iterations):
        strategy.prepare_iteration()
        result = runtime.execute(main_cls)
    return result


class TestCoroutineCompiler:
    def test_helper_chain_and_keyword_primitives(self):
        result = _run_inline(HelperChain)
        assert result.status == "ok", result.bug
        # The same program produces the same trace on the threaded carrier.
        strategy = RandomStrategy(seed=1)
        strategy.prepare_iteration()
        threaded = ThreadedRuntime(strategy).execute(HelperChain)
        assert threaded.trace.fingerprint() == result.trace.fingerprint()

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
                any(self.send(self.id, EKick()) for _ in range(1))

        class Parent(Machine):
            class Init(State):
                initial = True
                entry = "go"

            def go(self):
                self.create_machine(BadChild)

        strategy = RandomStrategy(seed=0)
        runtime = BugFindingRuntime(strategy)
        strategy.prepare_iteration()
        with pytest.raises(InlineCompileError, match="BadChild.go:.*generator expression"):
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
# Comprehensions and lambdas that schedule compile, to nested generators
# ---------------------------------------------------------------------------
class TestComprehensionsAndLambdas:
    """Each program runs on both carriers (``_on_both``): the compiled
    comprehension or lambda must make the decisions, in the order, and
    evaluate to the values the plain one does."""

    def test_comprehensions(self):
        def make(log):
            class Comprehending(Machine):
                class Init(State):
                    initial = True
                    entry = "go"
                    actions = {EStop: "noted"}

                def go(self):
                    leaf = "outer"
                    iter = None  # noqa: A001 - the lowering looks up no name
                    leaves = [self.create_machine(Leaf) for leaf in range(3) if leaf != 1]
                    sent = [self.send(t, EStop()) for t in leaves + [self.id] if self.nondet()]
                    pairs = {self.tag(n): self.create_machine(OtherLeaf) for n in range(2)}
                    kinds = {self.create_machine(Leaf).name for _ in range(2)}
                    grid = [[self.send(self.id, EStop()) for _ in row] for row in [[1], [2, 3]]]
                    while [self.send(self.id, EStop()) for _ in range(1)] and len(log) < 1:
                        log.append((leaf, [repr(m) for m in leaves], sent, pairs, kinds, grid))

                def tag(self, n):
                    self.send(self.id, EStop())
                    return f"k{n}"

                def noted(self):
                    pass

            return Comprehending

        for seed in SEEDS:
            result, log = _on_both(make, seed)
            assert result.status == "ok", result.bug
            ((leaf, leaves, sent, pairs, kinds, grid),) = log
            assert leaf == "outer"  # the loop variable stayed in the comprehension
            assert leaves == ["Leaf(1)", "Leaf(2)"]
            assert set(sent) <= {None}
            # A dict comprehension evaluates each key before its value.
            assert {k: repr(v) for k, v in pairs.items()} == {"k0": "OtherLeaf(3)", "k1": "OtherLeaf(4)"}
            assert kinds == {"Leaf"} and grid == [[None], [None, None]]

    def test_lambdas_bound_to_locals_and_fields(self):
        def make(log):
            class Lambdas(Machine):
                class Init(State):
                    initial = True
                    entry = "go"
                    actions = {EKick: "kicked", EStop: "stop"}

                def go(self):
                    self.arm()
                    spawn = lambda cls=Leaf: self.create_machine(cls)  # noqa: E731
                    made = [spawn(), spawn(OtherLeaf)]
                    for target in made:
                        poke = lambda t=target: self.send(t, EStop())  # noqa: E731
                        poke()
                    self.fire(EKick())
                    log.append([repr(m) for m in made])

                def arm(self):  # only binds: still a coroutine to go()
                    # Defaults are evaluated once, and the compiled calls
                    # see them too.
                    self.fire = lambda e, to=self.whom(), *, seen=log: seen.append(type(e).__name__) or self.send(to, e)

                def whom(self):
                    log.append("whom")
                    return self.id

                def kicked(self):
                    log.append("kicked")
                    [self.fire(EStop()) for _ in range(2)]

                def stop(self):
                    log.append("stop")

            return Lambdas

        for seed in SEEDS:
            result, log = _on_both(make, seed)
            assert result.status == "ok", result.bug
            assert log == [
                "whom", "EKick", ["Leaf(1)", "OtherLeaf(2)"],
                "kicked", "EStop", "EStop", "stop", "stop",
            ]

    def test_the_benchmark_shapes_run_inline(self):
        from benchmarks.perf.programs import FanOutCoordinator, LambdaRelay

        from .test_config import LambdaRacer, MidCampaignRacer

        for cls in (FanOutCoordinator, LambdaRelay, LambdaRacer, MidCampaignRacer):
            assert cls.inline_compatible(), cls.__dict__.get("_inline_incompatible")
            inline = _run_on("inline", cls, seed=3)
            assert inline.status in ("ok", "bug")
            assert inline.trace == _run_on("threads", cls, seed=3).trace


# ---------------------------------------------------------------------------
# What stays refused: one line naming the method, the line and the fallback
# ---------------------------------------------------------------------------
FALLBACK = "; run it with runtime_factory=ThreadedRuntime (Python API only)"


def _refused_line(name):
    with open(__file__, encoding="utf-8") as fh:
        return next(n for n, text in enumerate(fh, 1) if f"# refused: {name}" in text)


class _Base(Machine):
    def go(self):
        self.based = True


def _refused_shapes():
    class Starred(Machine):
        class Init(State):
            initial = True
            entry = "go"
            ignored = (EKick,)

        def go(self):
            args = (self.id, EKick())
            self.send(*args)  # refused: starred

    class DoubleStarred(Machine):
        class Init(State):
            initial = True
            entry = "go"
            ignored = (EKick,)

        def go(self):
            kwargs = {"target": self.id, "event": EKick()}
            self.send(**kwargs)  # refused: double-starred

    class Super(_Base):
        class Init(State):
            initial = True
            entry = "go"
            ignored = (EKick,)

        def go(self):
            super().go()  # refused: super
            self.send(self.id, EKick())

    class Generator(Machine):
        class Init(State):
            initial = True
            entry = "go"
            ignored = (EKick,)

        def go(self):  # refused: generator
            self.send(self.id, EKick())
            yield  # pragma: no cover - never driven

    class GeneratorExpression(Machine):
        class Init(State):
            initial = True
            entry = "go"
            ignored = (EKick,)

        def go(self):
            any(self.send(self.id, EKick()) for _ in range(1))  # refused: genexp

    class NestedFunction(Machine):
        class Init(State):
            initial = True
            entry = "go"
            ignored = (EKick,)

        def go(self):
            def later():
                self.send(self.id, EKick())  # refused: nested

            later()

    class UnboundLambda(Machine):
        class Init(State):
            initial = True
            entry = "go"
            ignored = (EKick,)

        def go(self):
            list(map(lambda t: self.send(t, EKick()), [self.id]))  # refused: unbound

    class LambdaInLambda(Machine):
        class Init(State):
            initial = True
            entry = "go"
            ignored = (EKick,)

        def go(self):
            fire = lambda: [self.send(t, EKick()) for t in [self.id]]  # noqa: E731  # refused: comp-in-lambda
            fire()

    class EscapingLocal(Machine):
        class Init(State):
            initial = True
            entry = "go"
            ignored = (EKick,)

        def go(self):
            fire = lambda: self.send(self.id, EKick())  # noqa: E731
            self.later(fire)  # refused: escaping-local

        def later(self, callback):
            callback()

    class EscapingField(Machine):
        class Init(State):
            initial = True
            entry = "go"
            actions = {EKick: "kicked"}

        def go(self):
            self.fire = lambda: self.send(self.id, EKick())
            self.fire()

        def kicked(self):
            callbacks = [self.fire]  # refused: escaping-field
            self.halt()
            return callbacks

    return {
        "starred": (Starred, "go"),
        "double-starred": (DoubleStarred, "go"),
        "super": (Super, "go"),
        "generator": (Generator, "go"),
        "genexp": (GeneratorExpression, "go"),
        "nested": (NestedFunction, "go"),
        "unbound": (UnboundLambda, "go"),
        "comp-in-lambda": (LambdaInLambda, "go"),
        "escaping-local": (EscapingLocal, "go"),
        "escaping-field": (EscapingField, "kicked"),
    }


def _fire_through(machine):
    machine.fire()


def _indirect_shapes():
    """A sending field reached other than by ``self.fire(...)`` in a
    compiled method: the compiler cannot see these paths, so the field's
    plain lambda must refuse when it runs instead of dropping its send."""

    class AliasedSelf(Machine):
        class Init(State):
            initial = True
            entry = "go"
            ignored = (EKick,)

        def go(self):
            self.fire = lambda: self.send(self.id, EKick())  # refused: aliased-self
            m = self
            m.fire()

    class PassedSelf(Machine):
        class Init(State):
            initial = True
            entry = "go"
            ignored = (EKick,)

        def go(self):
            self.fire = lambda: self.send(self.id, EKick())  # refused: passed-self
            _fire_through(self)

    class MethodReference(Machine):
        class Init(State):
            initial = True
            entry = "go"
            ignored = (EKick,)

        def go(self):
            self.fire = lambda: self.send(self.id, EKick())  # refused: method-reference
            relay = self.relay
            relay()

        def relay(self):
            self.fire()

    class GetattrReference(Machine):
        class Init(State):
            initial = True
            entry = "go"
            ignored = (EKick,)

        def go(self):
            self.fire = lambda: self.send(self.id, EKick())  # refused: getattr
            getattr(self, "relay")()

        def relay(self):
            self.fire()

    class PlainBinding(Machine):
        class Init(State):
            initial = True
            entry = "go"
            ignored = (EKick,)

        def go(self):
            arm = self.arm
            arm()  # binds a plain lambda: no twin for the call below
            self.fire()  # refused: plain-binding

        def arm(self):
            self.fire = lambda: self.send(self.id, EKick())

    return {
        "aliased-self": (AliasedSelf, "<lambda>"),
        "passed-self": (PassedSelf, "<lambda>"),
        "method-reference": (MethodReference, "<lambda>"),
        "getattr": (GetattrReference, "<lambda>"),
        "plain-binding": (PlainBinding, "go"),
    }


class TestRefusedShapes:
    @pytest.mark.parametrize("name", sorted(_refused_shapes()))
    def test_refusal_names_the_method_and_the_fallback(self, name):
        cls, method = _refused_shapes()[name]
        where = f"{cls.__name__}.{method}:{_refused_line(name)}: "
        with pytest.raises(InlineCompileError) as refused:
            compile_inline_machine(cls)
        message = str(refused.value)
        assert message.startswith(where) and "\n" not in message, message
        assert message.endswith(FALLBACK)
        with pytest.raises(InlineCompileError, match=where):
            _run_on("inline", cls, seed=0)
        assert _run_on("threads", cls, seed=0).status == "ok"

    @pytest.mark.parametrize("name", sorted(_indirect_shapes()))
    def test_a_sending_field_reached_indirectly_is_refused_when_it_runs(self, name):
        # These compile: the plain lambda (or, for plain-binding, the
        # missing twin) refuses at run time instead of dropping the send.
        cls, method = _indirect_shapes()[name]
        compile_inline_machine(cls)
        with pytest.raises(InlineCompileError) as refused:
            _run_on("inline", cls, seed=0)
        message = str(refused.value)
        assert message.startswith(f"{cls.__name__}.{method}:{_refused_line(name)}: "), message
        assert "\n" not in message and message.endswith(FALLBACK)
        assert _run_on("threads", cls, seed=0).status == "ok"

    def test_a_handler_without_source_is_refused_when_it_schedules(self):
        source = (
            "class Sourceless(Machine):\n"
            "    class Init(State):\n"
            "        initial = True\n"
            "        entry = 'go'\n"
            "        ignored = (EKick,)\n"
            "    def go(self):\n"
            "        self.send(self.id, EKick())\n"
        )
        namespace = {"Machine": Machine, "State": State, "EKick": EKick}
        exec(source, namespace)
        cls = namespace["Sourceless"]
        compile_inline_machine(cls)  # nothing to read: nothing reshaped
        with pytest.raises(InlineCompileError) as refused:
            _run_on("inline", cls, seed=0)
        message = str(refused.value)
        assert message.startswith("Sourceless.go:7: ")
        assert message.endswith(FALLBACK)
        assert _run_on("threads", cls, seed=0).status == "ok"


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
        runtime = BugFindingRuntime(strategy, max_steps=30)
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
#: The runtime class per carrier.
CARRIERS = {"inline": BugFindingRuntime, "threads": ThreadedRuntime}
SEEDS = range(8)


def _run_on(carrier, main_cls, seed, max_steps=2_000, **kwargs):
    strategy = RandomStrategy(seed=seed)
    runtime = CARRIERS[carrier](strategy, max_steps=max_steps, **kwargs)
    strategy.prepare_iteration()
    return runtime.execute(main_cls)


def _on_both(make, seed, **kwargs):
    """Run the program ``make(log)`` builds on each carrier; the traces and
    what the handlers logged must not tell the carriers apart.  Returns
    the (shared) result and log."""
    outcomes = []
    for carrier in CARRIERS:
        log = []
        result = _run_on(carrier, make(log), seed, **kwargs)
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
                ignored = (EKick,)

            def go(self):
                any(self.send(self.id, EKick()) for _ in range(1))

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
            with pytest.raises(InlineCompileError, match="BadChild.go:"):
                _run_on("inline", self.make(log), seed)
            logs.add(tuple(log))
        # Never swallowed; a sibling suspended in its send ran its finally.
        assert logs == {("sibling returned", "sibling finally"), ("sibling finally",)}

    def test_the_threaded_runtime_runs_it(self):
        def campaign(factory):
            return Campaign(
                TestConfig(
                    self.make([]),
                    max_iterations=10,
                    time_limit=30.0,
                    stop_on_first_bug=False,
                    runtime_factory=factory,
                ),
                strategy=RandomStrategy(seed=3),
            ).run()

        with pytest.raises(InlineCompileError, match="runtime_factory=ThreadedRuntime"):
            campaign(None)
        report = campaign(ThreadedRuntime)
        assert report.effective_backend == "threads"
        assert report.iterations == 10 and not report.bug_found


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

    def test_chess_runtime_is_threaded(self):
        from repro.chess import ChessRuntime

        assert issubclass(ChessRuntime, ThreadedRuntime)
        assert ChessRuntime.carrier == "threads"


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
    def test_threads_chess_and_production_never_see_a_coroutine(self, monkeypatch):
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

        threaded = _run_on("threads", compiled, seed=5)
        assert threaded.status == "ok", threaded.bug
        assert threaded.trace == inline.trace

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
