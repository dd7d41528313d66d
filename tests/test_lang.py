"""Tests for the core calculus: parser, CFGs, interpreter, race detector."""

import os
import subprocess
import sys

import pytest

from repro.lang import (
    Assign,
    Call,
    Cfg,
    If,
    Interpreter,
    LoadField,
    MethodDecl,
    ParseError,
    Return,
    Send,
    StoreField,
    VarDecl,
    While,
    explore,
    parse_program,
)

from .lang_programs import (
    ASSERT_FAIL,
    COUNTER,
    LIST_MANAGER,
    LIST_MANAGER_FIXED,
    NONDET_ASSERT,
)


class TestParser:
    def test_parses_paper_example(self):
        program = parse_program(LIST_MANAGER)
        assert set(program.machines) == {"list_manager", "client"}
        assert "elem" in program.classes
        elem = program.classes["elem"]
        assert [f.name for f in elem.fields] == ["val", "next"]
        assert set(elem.methods) == {"get_val", "get_next", "set_val", "set_next"}

    def test_machine_transition_function(self):
        program = parse_program(LIST_MANAGER)
        manager = program.machines["list_manager"]
        assert manager.initial == "init"
        handler = manager.transition("init", "eAdd")
        assert handler is not None
        assert handler.method == "add"
        assert handler.next_state == "add"
        assert manager.transition("init", "eUnknown") is None

    def test_statement_forms(self):
        program = parse_program(LIST_MANAGER)
        add = program.method("list_manager", "add")
        kinds = [type(s).__name__ for s in add.body]
        assert kinds == ["LoadField", "Call", "StoreField"]
        get = program.method("list_manager", "get")
        assert isinstance(get.body[1], Send)
        assert get.body[1].event == "eReply"
        assert get.body[1].arg == "tmp"

    def test_parse_error_reports_line(self):
        with pytest.raises(ParseError, match="line"):
            parse_program("class broken {\n  int x\n}")

    def test_reference_params_detected(self):
        program = parse_program(LIST_MANAGER)
        add = program.method("list_manager", "add")
        assert add.reference_params() == ["payload"]
        bump = parse_program(COUNTER).method("counter", "bump")
        assert bump.reference_params() == []


class TestCfg:
    def _method(self, body):
        return MethodDecl(name="m", params=[], locals=[], body=body)

    def test_straight_line(self):
        cfg = Cfg(self._method([Assign("a", "b"), Assign("c", "a")]))
        stmts = cfg.statement_nodes()
        assert len(stmts) == 2
        assert cfg.entry.succs == [stmts[0]]
        assert stmts[0].succs == [stmts[1]]
        assert stmts[1].succs == [cfg.exit]

    def test_if_branches_reconverge(self):
        body = [
            If("c", [Assign("a", "x")], [Assign("a", "y")]),
            Assign("z", "a"),
        ]
        cfg = Cfg(self._method(body))
        cond = next(n for n in cfg.nodes if isinstance(n.stmt, If))
        assert len(cond.succs) == 2
        join = next(
            n for n in cfg.nodes if isinstance(n.stmt, Assign) and n.stmt.dst == "z"
        )
        assert len(join.preds) == 2

    def test_if_without_else_falls_through(self):
        body = [If("c", [Assign("a", "x")], []), Assign("z", "a")]
        cfg = Cfg(self._method(body))
        cond = next(n for n in cfg.nodes if isinstance(n.stmt, If))
        join = next(
            n for n in cfg.nodes if isinstance(n.stmt, Assign) and n.stmt.dst == "z"
        )
        assert join in cond.succs  # direct fall-through edge

    def test_while_has_back_edge(self):
        body = [While("c", [Assign("a", "x")]), Return("a")]
        cfg = Cfg(self._method(body))
        cond = next(n for n in cfg.nodes if isinstance(n.stmt, While))
        inner = next(
            n for n in cfg.nodes if isinstance(n.stmt, Assign) and n.stmt.dst == "a"
        )
        assert inner in cond.succs
        assert cond in inner.succs  # back edge

    def test_return_connects_to_exit(self):
        body = [If("c", [Return("x")], []), Assign("z", "y")]
        cfg = Cfg(self._method(body))
        ret = next(n for n in cfg.nodes if isinstance(n.stmt, Return))
        assert ret.succs == [cfg.exit]

    def test_reachability_queries(self):
        body = [Assign("a", "b"), Assign("c", "a"), Assign("d", "c")]
        cfg = Cfg(self._method(body))
        first, second, third = cfg.statement_nodes()
        assert second in cfg.reachable_from(first)
        assert first not in cfg.reachable_from(second)
        assert first in cfg.reaching(third)


class TestInterpreter:
    def test_counter_executes(self):
        program = parse_program(COUNTER)
        interp = Interpreter(program, instances=["driver"], seed=1)
        error = interp.run()
        assert error is None
        counter = interp.machines[1]
        value = interp.heap[(counter.self_ref.id, "count")]
        assert value == 3  # 0 + 1 + 2, queue order preserved per sender

    def test_assert_failure_reported(self):
        program = parse_program(ASSERT_FAIL)
        interp = Interpreter(program, instances=["failing"])
        error = interp.run()
        assert error is not None and "assertion failed" in error

    def test_nondet_explored_systematically(self):
        program = parse_program(NONDET_ASSERT)
        result = explore(program, instances=["coin"], max_schedules=100)
        assert result.exhausted
        # Exactly one of the four choice combinations fails.
        assert len(result.errors) == 1
        assert result.schedules == 4

    def test_the_core_calculus_loads_no_part_of_the_tester(self):
        # explore() borrows the tester's DFS stack on first call only.
        code = (
            "import sys, repro.lang\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.testing')))\n"
            "from tests.lang_programs import NONDET_ASSERT\n"
            "repro.lang.explore(repro.lang.parse_program(NONDET_ASSERT), instances=['coin'])\n"
            "print('repro.testing.strategies' in sys.modules)\n"
        )
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = {**os.environ, "PYTHONPATH": os.path.join(root, "src") + os.pathsep + root}
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, check=True, env=env, cwd=root,
        )
        assert done.stdout.splitlines() == ["[]", "True"]

    def test_method_calls_and_heap(self):
        program = parse_program(LIST_MANAGER)
        interp = Interpreter(program, instances=["client"], seed=0)
        error = interp.run()
        assert error is None
        # The client stored the received list head in its `item` field.
        client = interp.machines[0]
        item = interp.heap[(client.self_ref.id, "item")]
        assert item is not None
        assert interp.heap[(item.id, "val")] == 2

    def test_step_bound_detected(self):
        looping = """
        machine spinner {
            void init() {
                int one;
                one := 1;
                while (one) { one := 1; }
            }
            transitions { init: eNever -> init; }
        }
        """
        program = parse_program(looping)
        interp = Interpreter(program, instances=["spinner"], max_steps=100)
        error = interp.run()
        assert error is not None and "step bound" in error


class TestRaceDetection:
    def test_racy_list_manager_races_dynamically(self):
        # Example 4.2: "the machine potentially suffers from a data race: a
        # reference to the list is still held by the machine after being
        # used as a payload in the send statement".
        program = parse_program(LIST_MANAGER)
        result = explore(program, instances=["client"], max_schedules=3000)
        assert not result.race_free
        race = result.races[0]
        assert race.field in ("val", "next")

    def test_fixed_list_manager_is_race_free(self):
        # Example 5.5's repair eliminates the race in every interleaving
        # of this client (the manager drops its reference before replying).
        program = parse_program(LIST_MANAGER_FIXED)
        result = explore(program, instances=["client"], max_schedules=3000)
        assert result.race_free

    def test_counter_has_no_races(self):
        program = parse_program(COUNTER)
        result = explore(program, instances=["driver"], max_schedules=3000)
        assert result.exhausted
        assert result.race_free

    def test_send_receive_establishes_order(self):
        # Sequential handoff through an event is not a race even though
        # both machines touch the same object.
        handoff = """
        class box { int v; void set(int x) { this.v := x; } int get() { int r; r := this.v; return r; } }
        machine producer {
            void init() {
                box b;
                machine c;
                b := new box;
                b.set(1);
                c := create consumer();
                send c eBox(b);
            }
            transitions { init: eNever -> init; }
        }
        machine consumer {
            void init() { }
            void take(box payload) {
                payload.set(2);
            }
            transitions { init: eBox -> take; take: eBox -> take; }
        }
        """
        program = parse_program(handoff)
        result = explore(program, instances=["producer"], max_schedules=3000)
        assert result.exhausted
        assert result.race_free
