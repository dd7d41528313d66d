"""Tests for the Python -> IR frontend: the same Machine classes that run
under the SCT runtime are lowered and statically analyzed."""

import ast

import pytest

import repro.analysis.frontend as frontend_module
from repro import Event, Machine, State
from repro.analysis import analyze_program
from repro.analysis.frontend import (
    FrontendError,
    PythonFrontend,
    analyze_machines,
    lower_machines,
)
from repro.bench import registry
from repro.lang.ir import Assign, Call, Send, StoreField, While, flatten

from .generated import chain
from .test_golden_table1 import cases as analysed_cases


class EItem(Event):
    pass


class EAck(Event):
    pass


class RacySender(Machine):
    """Sends a list it keeps mutating: a real race, must be flagged."""

    class Init(State):
        initial = True
        entry = "setup"
        actions = {EAck: "on_ack"}

    def setup(self):
        self.data = [1, 2, 3]
        self.peer = self.create_machine(ReadingPeer, self.id)
        self.send(self.peer, EItem(self.data))

    def on_ack(self):
        self.data.append(4)  # mutation of heap already given away


class SafeSender(Machine):
    """Sends a fresh list each time and forgets it: race-free."""

    class Init(State):
        initial = True
        entry = "setup"
        actions = {EAck: "on_ack"}

    def setup(self):
        self.peer = self.create_machine(ReadingPeer, self.id)
        payload = [1, 2, 3]
        self.send(self.peer, EItem(payload))

    def on_ack(self):
        fresh = [self.nondet_int(10)]
        self.send(self.peer, EItem(fresh))


class StagedSender(Machine):
    """The xSA pattern: payload staged in a field in one state, sent and
    reset in another."""

    class Staging(State):
        initial = True
        entry = "stage"
        transitions = {EAck: "Flushing"}

    class Flushing(State):
        entry = "flush"
        transitions = {EAck: "Staging"}

    def stage(self):
        self.pending = [1, 2]
        self.peer = self.create_machine(ReadingPeer, self.id)
        self.send(self.id, EAck())

    def flush(self):
        data = self.pending
        self.pending = None
        self.send(self.peer, EItem(data))
        self.send(self.id, EAck())


class ReadingPeer(Machine):
    class Init(State):
        initial = True
        entry = "setup"
        actions = {EItem: "on_item"}

    def setup(self):
        self.parent = self.payload
        self.total = 0

    def on_item(self):
        items = self.payload
        for value in items:
            self.total = self.total + value
        self.send(self.parent, EAck())


class LoopAfterSend(Machine):
    """Keeps appending, in a ``while`` loop, to the list it sent: a race."""

    class Init(State):
        initial = True
        entry = "setup"

    def setup(self):
        self.peer = self.create_machine(ReadingPeer, self.id)
        buf = [1]
        self.send(self.peer, EItem(buf))
        n = 0
        while n < 2:
            buf.append(n)
            n = n + 1


class AugAssignAfterSend(Machine):
    """``buf += [2]`` on the list it sent: reads it after giving it away."""

    class Init(State):
        initial = True
        entry = "setup"

    def setup(self):
        self.peer = self.create_machine(ReadingPeer, self.id)
        buf = [1]
        self.send(self.peer, EItem(buf))
        buf += [2]


class LoopAndAugAssignBeforeSend(Machine):
    """The same two shapes, done before the send: race-free."""

    class Init(State):
        initial = True
        entry = "setup"

    def setup(self):
        self.peer = self.create_machine(ReadingPeer, self.id)
        buf = [1]
        buf += [2]
        n = 0
        while n < 2:
            buf.append(n)
            n = n + 1
        self.send(self.peer, EItem(buf))


def _setup_body(machine_cls):
    program = lower_machines([machine_cls, ReadingPeer])
    return program.classes[machine_cls.__name__].methods["setup"].body


class TestLowering:
    def test_machines_lowered_to_program(self):
        program = lower_machines([SafeSender, ReadingPeer], name="safe")
        assert set(program.machines) == {"SafeSender", "ReadingPeer"}
        sender = program.classes["SafeSender"]
        assert "setup" in sender.methods
        assert "on_ack" in sender.methods

    def test_send_lowered_with_event_name(self):
        program = lower_machines([SafeSender, ReadingPeer])
        setup = program.classes["SafeSender"].methods["setup"]
        sends = [s for s in flatten(setup.body) if isinstance(s, Send)]
        assert len(sends) == 1
        assert sends[0].event == "EItem"
        assert sends[0].arg is not None

    def test_field_writes_lowered_to_storefield(self):
        program = lower_machines([SafeSender, ReadingPeer])
        setup = program.classes["SafeSender"].methods["setup"]
        stores = [s for s in flatten(setup.body) if isinstance(s, StoreField)]
        assert {s.field for s in stores} == {"peer"}

    def test_container_methods_lowered_to_calls(self):
        program = lower_machines([RacySender, ReadingPeer])
        on_ack = program.classes["RacySender"].methods["on_ack"]
        calls = [s for s in flatten(on_ack.body) if isinstance(s, Call)]
        assert any(c.method == "append" for c in calls)

    def test_transitions_and_actions_become_handlers(self):
        program = lower_machines([StagedSender, ReadingPeer])
        decl = program.machines["StagedSender"]
        events = {(h.state, h.event) for h in decl.handlers}
        assert ("Staging", "EAck") in events
        assert ("Flushing", "EAck") in events

    def test_payload_type_inferred_from_senders(self):
        program = lower_machines([RacySender, ReadingPeer])
        on_item = program.classes["ReadingPeer"].methods["on_item"]
        payload_param = on_item.params[0]
        assert payload_param.name == "$payload"
        assert payload_param.type == "list"

    def test_unsupported_construct_reported(self):
        class BreakUser(Machine):
            class Init(State):
                initial = True
                entry = "go"

            def go(self):
                for i in range(3):
                    break

        with pytest.raises(FrontendError, match="break"):
            lower_machines([BreakUser])

    def test_while_loop_lowered_with_its_body_after_the_send(self):
        body = _setup_body(LoopAfterSend)
        kinds = [type(stmt) for stmt in body]
        assert kinds.index(Send) < kinds.index(While)
        (loop,) = [stmt for stmt in body if isinstance(stmt, While)]
        calls = [s for s in flatten(loop.body) if isinstance(s, Call)]
        assert [(c.recv, c.method) for c in calls] == [("buf", "append")]
        # The condition is re-evaluated at the end of every iteration.
        assert isinstance(loop.body[-1], Assign) and loop.body[-1].dst == loop.cond

    def test_augmented_assignment_lowered_to_a_fresh_list(self):
        body = _setup_body(AugAssignAfterSend)
        after = body[[type(stmt) for stmt in body].index(Send) + 1:]
        calls = [s for s in after if isinstance(s, Call)]
        assert [c.method for c in calls] == ["extend", "extend"]
        assert calls[0].args == ["buf"]
        assert isinstance(after[-1], Assign) and after[-1].dst == "buf"


class TestEndToEndAnalysis:
    def test_racy_sender_flagged(self):
        analysis = analyze_machines([RacySender, ReadingPeer], name="racy")
        assert not analysis.verified
        methods = {v.site.info.decl.name for _m, v in analysis.surviving()}
        assert "setup" in methods  # the send of self.data

    def test_safe_sender_verified(self):
        analysis = analyze_machines([SafeSender, ReadingPeer], name="safe")
        assert analysis.verified, [
            str(d) for d in analysis.to_report().diagnostics
        ]

    def test_staged_sender_needs_xsa(self):
        without = analyze_machines(
            [StagedSender, ReadingPeer], name="staged", xsa=False
        )
        assert not without.verified
        with_xsa = analyze_machines(
            [StagedSender, ReadingPeer], name="staged", xsa=True
        )
        assert with_xsa.verified, [
            str(d) for d in with_xsa.to_report().diagnostics
        ]

    @pytest.mark.parametrize("machine_cls,use", [
        (LoopAfterSend, "buf.append(n)"),
        (AugAssignAfterSend, ".extend(buf)"),
    ])
    def test_write_after_send_in_loop_or_aug_assign_flagged(self, machine_cls, use):
        analysis = analyze_machines([machine_cls, ReadingPeer], name="post-send")
        assert not analysis.verified
        ((_machine, violation),) = analysis.surviving()
        assert violation.site.var == "buf" and violation.site.kind == "send"
        assert any(use in str(node) for node, _vars in violation.flagged_uses)

    def test_the_same_shapes_before_the_send_verified(self):
        analysis = analyze_machines(
            [LoopAndAugAssignBeforeSend, ReadingPeer], name="pre-send"
        )
        assert analysis.verified, [
            str(d) for d in analysis.to_report().diagnostics
        ]

    def test_runtime_execution_matches_analysis(self):
        # The very same classes run under the SCT runtime.
        from repro import Campaign, RandomStrategy, TestConfig

        engine = Campaign(
            TestConfig(
                SafeSender,
                max_iterations=20,
                stop_on_first_bug=False,
                max_steps=2_000,
            ),
            strategy=RandomStrategy(seed=0),
        )
        report = engine.run()
        assert report.iterations == 20
        assert not report.bug_found


class TestSettling:
    """Lowering returns a pass that left the type table unchanged, however
    many passes that takes, and refuses a program whose table never
    settles.  A payload type that has not arrived reads as the optimistic
    ``"none"``, a scalar, so returning earlier misses races."""

    @pytest.mark.parametrize("n", [9, 12])
    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_chain_reports_every_write_after_send_in_either_order(self, n, order):
        machines = chain(n)
        if order == "reversed":
            machines.reverse()
        frontend = PythonFrontend(machines, name=f"chain{n}")
        analysis = analyze_program(frontend.build(), xsa=True, readonly=True)
        # Forward, each link's type arrives within the pass; reversed, one
        # link a pass, then one more pass to see nothing change.
        assert frontend.counters["passes"] == (3 if order == "forward" else n + 2)
        assert analysis.violation_count() == n - 1
        assert sorted(machine for machine, _v in analysis.surviving()) == sorted(
            f"M{i}" for i in range(n - 1)
        )

    def test_a_table_that_does_not_settle_is_refused(self, monkeypatch):
        machines = chain(9)[::-1]  # settles in 11 passes
        monkeypatch.setattr(frontend_module, "MAX_PASSES", 10)
        with pytest.raises(
            FrontendError, match=r"^chain9: types did not settle in 10 lowering passes$"
        ):
            lower_machines(machines, name="chain9")
        monkeypatch.setattr(frontend_module, "MAX_PASSES", 11)
        assert lower_machines(machines, name="chain9") == lower_machines(chain(9), name="chain9")


class TestFunctionDefMemo:
    """Each function is parsed once per frontend and the tree is shared by
    every refinement pass, so lowerers must only read it."""

    @pytest.mark.parametrize("name,variant", analysed_cases())
    def test_memo_changes_no_lowered_program_and_no_tree(self, name, variant):
        class ReparsingFrontend(PythonFrontend):
            def _function_def(self, func):
                self._function_defs.clear()  # a fresh tree per pass, as before
                return super()._function_def(func)

        chosen = getattr(registry.get(name), variant)
        memoizing = PythonFrontend(chosen.machines, chosen.helpers, name)
        reparsing = ReparsingFrontend(chosen.machines, chosen.helpers, name)
        assert str(memoizing.build()) == str(reparsing.build())
        assert len(memoizing._function_defs) > 1
        for func, tree in memoizing._function_defs.items():
            fresh = PythonFrontend((), ())._function_def(func)
            assert ast.dump(tree, include_attributes=True) == ast.dump(
                fresh, include_attributes=True
            )
