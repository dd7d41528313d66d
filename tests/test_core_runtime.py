"""Unit tests for the core machine model and the production runtime."""

import random

import pytest

from repro import (
    Event,
    Halt,
    Machine,
    MachineDeclarationError,
    MachineId,
    Runtime,
    State,
    machine_statistics,
    program_statistics,
)
from repro.errors import PSharpError
from repro.testing import BugFindingRuntime, Monitor, RandomStrategy

from .machines import EPing, EStart, Ping, Pong


class EA(Event):
    pass


class EB(Event):
    pass


def run_once(main_cls, payload=None, seed=0):
    strategy = RandomStrategy(seed=seed)
    strategy.prepare_iteration()
    runtime = BugFindingRuntime(strategy)
    result = runtime.execute(main_cls, payload)
    return runtime, result


class TestDeclarations:
    def test_states_collected(self):
        assert set(Ping._state_infos) == {"Init", "Playing"}
        assert Ping._initial_state == "Init"

    def test_missing_initial_state_rejected(self):
        with pytest.raises(MachineDeclarationError, match="initial"):

            class NoInitial(Machine):
                class S(State):
                    pass

    def test_two_initial_states_rejected(self):
        with pytest.raises(MachineDeclarationError, match="initial"):

            class TwoInitials(Machine):
                class S1(State):
                    initial = True

                class S2(State):
                    initial = True

    def test_event_handled_twice_rejected(self):
        # Paper error class (i): one event, two handlers in one state.
        with pytest.raises(MachineDeclarationError, match="both"):

            class Conflicting(Machine):
                class S(State):
                    initial = True
                    transitions = {EA: "S"}
                    actions = {EA: "noop"}

                def noop(self):
                    pass

    def test_unknown_transition_target_rejected(self):
        with pytest.raises(MachineDeclarationError, match="unknown state"):

            class BadTarget(Machine):
                class S(State):
                    initial = True
                    transitions = {EA: "Nowhere"}

    def test_missing_action_rejected(self):
        with pytest.raises(MachineDeclarationError, match="missing action"):

            class BadAction(Machine):
                class S(State):
                    initial = True
                    actions = {EA: "does_not_exist"}

    def test_missing_entry_rejected(self):
        with pytest.raises(MachineDeclarationError, match="missing"):

            class BadEntry(Machine):
                class S(State):
                    initial = True
                    entry = "does_not_exist"

    def test_state_inheritance_between_machines(self):
        class Base(Machine):
            class Init(State):
                initial = True
                actions = {EA: "handle"}

            def handle(self):
                pass

        class Derived(Base):
            class Extra(State):
                actions = {EB: "handle"}

        assert set(Derived._state_infos) == {"Init", "Extra"}
        assert Derived._initial_state == "Init"

    def test_state_override_in_subclass(self):
        class Base(Machine):
            class Init(State):
                initial = True
                actions = {EA: "handle"}

            def handle(self):
                pass

        class Derived(Base):
            class Init(State):
                initial = True
                actions = {EB: "handle"}

        assert EB in Derived._state_infos["Init"].actions
        assert EA not in Derived._state_infos["Init"].actions


class TestStatistics:
    def test_machine_statistics(self):
        stats = machine_statistics(Ping)
        assert stats["states"] == 2
        assert stats["transitions"] == 1  # EStart -> Playing
        assert stats["action_bindings"] == 1  # EPong

    def test_program_statistics(self):
        stats = program_statistics([Ping, Pong])
        assert stats["machines"] == 2
        assert stats["transitions"] == 1
        assert stats["action_bindings"] == 2


class TestMachineIds:
    def test_ids_ordered_and_hashable(self):
        a, b = MachineId(0, "A"), MachineId(1, "B")
        assert a < b
        assert len({a, b, MachineId(0, "A")}) == 2


class TestEventDelivery:
    def test_ping_pong_completes(self):
        runtime, result = run_once(Ping)
        assert result.status == "ok"
        assert not result.buggy
        ping = runtime.machines[0]
        pong = runtime.machines[1]
        assert ping.count == 3
        assert pong.pings == 3
        assert ping.is_halted and pong.is_halted

    def test_send_to_halted_machine_dropped(self):
        class Sender(Machine):
            class Init(State):
                initial = True
                entry = "go"

            def go(self):
                target = self.create_machine(Pong)
                self.send(target, Halt())
                self.send(target, EPing(self.id))  # dropped, no error
                self.halt()

        _, result = run_once(Sender)
        assert result.status == "ok"

    def test_deferred_event_stays_queued(self):
        log = []

        class Deferrer(Machine):
            class First(State):
                initial = True
                entry = "seed"
                deferred = (EA,)
                transitions = {EB: "Second"}

            class Second(State):
                entry = "arrived"
                actions = {EA: "on_a"}

            def seed(self):
                self.send(self.id, EA("deferred-payload"))
                self.send(self.id, EB())

            def arrived(self):
                log.append("second")

            def on_a(self):
                log.append(("a", self.payload))
                self.halt()

        _, result = run_once(Deferrer)
        assert result.status == "ok"
        assert log == ["second", ("a", "deferred-payload")]

    def test_ignored_event_dropped(self):
        log = []

        class Ignorer(Machine):
            class Init(State):
                initial = True
                entry = "seed"
                ignored = (EA,)
                actions = {EB: "on_b"}

            def seed(self):
                self.send(self.id, EA())
                self.send(self.id, EB())

            def on_b(self):
                log.append("b")
                self.halt()

        _, result = run_once(Ignorer)
        assert result.status == "ok"
        assert log == ["b"]

    def test_unhandled_event_is_bug(self):
        class Oops(Machine):
            class Init(State):
                initial = True
                entry = "seed"

            def seed(self):
                self.send(self.id, EA())

        _, result = run_once(Oops)
        assert result.buggy
        assert result.bug.kind == "unhandled-event"

    def test_raised_event_handled_before_queue(self):
        order = []

        class Raiser(Machine):
            class Init(State):
                initial = True
                entry = "seed"
                actions = {EA: "on_a", EB: "on_b"}

            def seed(self):
                self.send(self.id, EA())
                self.raise_event(EB())

            def on_a(self):
                order.append("a")
                self.halt()

            def on_b(self):
                order.append("b")

        _, result = run_once(Raiser)
        assert result.status == "ok"
        assert order == ["b", "a"]

    def test_exit_handler_runs_on_transition(self):
        log = []

        class WithExit(Machine):
            class First(State):
                initial = True
                entry = "seed"
                exit = "leaving"
                transitions = {EA: "Second"}

            class Second(State):
                entry = "arrived"

            def seed(self):
                self.send(self.id, EA())

            def leaving(self):
                log.append("exit-first")

            def arrived(self):
                log.append("enter-second")
                self.halt()

        _, result = run_once(WithExit)
        assert result.status == "ok"
        assert log == ["exit-first", "enter-second"]

    def test_payload_visible_in_entry(self):
        seen = {}

        class Receiver(Machine):
            class Init(State):
                initial = True
                entry = "record"

            def record(self):
                seen["payload"] = self.payload
                self.halt()

        _, result = run_once(Receiver, payload=42)
        assert result.status == "ok"
        assert seen["payload"] == 42

    def test_action_exception_is_bug(self):
        class Exploder(Machine):
            class Init(State):
                initial = True
                entry = "boom"

            def boom(self):
                raise ValueError("kaboom")

        _, result = run_once(Exploder)
        assert result.buggy
        assert result.bug.kind == "action-exception"
        assert "kaboom" in result.bug.message


class TestProductionRuntime:
    def test_ping_pong_on_real_threads(self):
        runtime = Runtime(seed=7)
        runtime.run(Ping)
        runtime.wait_quiescence(timeout=10.0)
        runtime.stop()
        assert runtime._error is None
        ping = runtime.machines[0]
        assert ping.count == 3

    def test_join_reraises_errors(self):
        class Exploder(Machine):
            class Init(State):
                initial = True
                entry = "boom"

            def boom(self):
                raise ValueError("production kaboom")

        runtime = Runtime()
        runtime.run(Exploder)
        with pytest.raises(Exception, match="production kaboom"):
            runtime.join(timeout=10.0)

    def test_join_returns_once_every_machine_has_halted(self):
        # A halt can be what makes the program quiescent, and a machine
        # leaving its loop used to tell nobody: join() then sat out its
        # whole timeout.  Hang detector, no duration asserted: join gets
        # a timeout far above the suite's patience and runs on a helper
        # thread this test waits for with a generous bound.
        import threading

        runtime = Runtime(seed=1)
        runtime.run(Ping)
        joiner = threading.Thread(
            target=runtime.join, kwargs={"timeout": 3600.0}, daemon=True
        )
        joiner.start()
        joiner.join(timeout=120.0)
        assert not joiner.is_alive(), "join() is waiting out its timeout"
        assert all(machine.is_halted for machine in runtime.machines)

    def test_nondet_choices_come_from_the_seeded_generator(self):
        class Chooser(Machine):
            class Init(State):
                initial = True
                entry = "choose"

            def choose(self):
                self.bools = [self.nondet() for _ in range(16)]
                self.ints = [self.nondet_int(7) for _ in range(16)]
                self.halt()

        rng = random.Random(5)
        bools = [bool(rng.getrandbits(1)) for _ in range(16)]
        ints = [rng.randrange(7) for _ in range(16)]
        for _run in range(2):
            runtime = Runtime(seed=5)
            runtime.run(Chooser)
            runtime.join(timeout=10.0)
            (chooser,) = runtime.machines
            assert chooser.bools == bools and chooser.ints == ints
        assert {type(b) for b in bools} == {bool} and set(ints) <= set(range(7))

    def test_invoke_monitor_reaches_only_the_registered_monitor(self):
        class Counting(Monitor):
            class Watching(State):
                initial = True
                entry = "setup"
                actions = {EA: "count"}
                ignored = (EB,)

            def setup(self):
                self.seen = 0

            def count(self):
                self.seen += 1

        class Unregistered(Counting):
            pass

        class Reporter(Machine):
            class Init(State):
                initial = True
                entry = "report"

            def report(self):
                self.monitor(Counting, EA())
                self.monitor(Unregistered, EA())  # not attached: a no-op
                self.monitor(Counting, EB())  # not handled: ignored
                self.monitor(Counting, EA())
                self.halt()

        runtime = Runtime(seed=0)
        runtime.register_monitor(Counting)
        runtime.run(Reporter)
        runtime.join(timeout=10.0)
        (monitor,) = runtime._monitors
        assert type(monitor) is Counting and monitor.seen == 2

    def test_a_monitor_choosing_nondeterministically_stops_the_runtime(self):
        class Chooser(Monitor):
            class Watching(State):
                initial = True
                actions = {EA: "choose"}

            def choose(self):
                self.nondet_int(3)

        class Invoker(Machine):
            class Init(State):
                initial = True
                entry = "invoke"

            def invoke(self):
                self.monitor(Chooser, EA())

        runtime = Runtime(seed=0)
        runtime.register_monitor(Chooser)
        runtime.run(Invoker)
        with pytest.raises(PSharpError, match="Chooser attempted a nondeterministic"):
            runtime.join(timeout=10.0)
