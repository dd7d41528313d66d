"""Tests for the static data race analysis using the paper's examples.

Example 4.2 / 5.4: the racy ``list_manager.get`` must be flagged
(condition 1: the list stays reachable through ``this``).
Example 5.3: no parameters given up in the base examples; a forwarding
``add`` gives up its payload.
Example 5.5: the repaired manager is a false positive *without* xSA and
verified *with* xSA.
"""

import pytest

from repro import Event, Machine, State
from repro.analysis import (
    OwnershipAnalysis,
    TaintEngine,
    analyze_program,
    build_driver,
)
from repro.analysis.frontend import analyze_machines
from repro.lang import parse_program

from .lang_programs import ELEM_CLASS, LIST_MANAGER, LIST_MANAGER_FIXED


def _info(taint, cls, method):
    return taint.methods[(cls, method)]


class TestTaintSummaries:
    def test_example_5_2_getters_and_setters(self):
        program = parse_program(LIST_MANAGER)
        taint = TaintEngine(program)
        # get_val / set_val move only scalars: no reference flows besides
        # the identity on `this`.
        get_val = taint.summaries[("elem", "get_val")]
        assert get_val.flow("this") == {"this"}
        # get_next: tainted(ret, Exit)(Entry) = {this}  (Example 5.2)
        get_next = taint.summaries[("elem", "get_next")]
        assert "$ret" in get_next.flow("this")
        # set_next stores its argument into `this`.
        set_next = taint.summaries[("elem", "set_next")]
        assert "this" in set_next.flow("n")

    def test_example_5_2_ret_overwritten_not_tainted(self):
        # "(ret is not included in the set, as its value is overwritten
        # in the second line of the method)" — the backward query from
        # the returned value must reach `this` but not stale `ret`.
        program = parse_program(LIST_MANAGER)
        taint = TaintEngine(program)
        info = _info(taint, "elem", "get_next")
        exit_node = info.cfg.exit
        ret_node = next(
            n for n in info.cfg.statement_nodes() if "return" in str(n.stmt)
        )
        facts = taint.closure_facts(info, "ret", ret_node)
        entry_taints = facts.out_of(info.cfg.entry)
        assert "this" in entry_taints

    def test_mutation_summaries(self):
        program = parse_program(LIST_MANAGER)
        taint = TaintEngine(program)
        set_next = taint.summaries[("elem", "set_next")]
        assert "this" in set_next.mutates
        get_next = taint.summaries[("elem", "get_next")]
        assert "this" not in get_next.mutates


class TestGivesUp:
    def test_example_5_3_no_giveups_in_base_methods(self):
        program = parse_program(LIST_MANAGER)
        ownership = OwnershipAnalysis(program)
        # "For the methods in Examples 4.1 and 4.2, no formal parameters
        # are given up."
        assert ownership.gives_up[("elem", "set_next")] == frozenset()
        assert "payload" not in ownership.gives_up[("list_manager", "add")]

    def test_example_5_3_forwarding_add_gives_up_payload(self):
        # "if we would let the add method forward payload instead of
        # adding it to the list ... then add would give up payload."
        forwarding = ELEM_CLASS + """
        machine forwarder {
            machine dst;
            void init() { }
            void add(elem payload) {
                machine d;
                d := this.dst;
                send d eAdd(payload);
            }
            transitions { init: eAdd -> add; add: eAdd -> add; }
        }
        """
        program = parse_program(forwarding)
        ownership = OwnershipAnalysis(program)
        assert "payload" in ownership.gives_up[("forwarder", "add")]

    def test_giveup_propagates_through_call_chain(self):
        chained = ELEM_CLASS + """
        class courier {
            machine dst;
            void dispatch(elem item) {
                machine d;
                d := this.dst;
                send d eItem(item);
            }
        }
        machine station {
            courier c;
            void init() { }
            void handle(elem payload) {
                courier k;
                k := this.c;
                k.dispatch(payload);
            }
            transitions { init: eItem -> handle; handle: eItem -> handle; }
        }
        """
        program = parse_program(chained)
        ownership = OwnershipAnalysis(program)
        assert "item" in ownership.gives_up[("courier", "dispatch")]
        assert "payload" in ownership.gives_up[("station", "handle")]


class TestRespectsOwnership:
    def test_example_5_4_racy_get_flagged(self):
        program = parse_program(LIST_MANAGER)
        analysis = analyze_program(program, xsa=False)
        methods = {v.site.info.decl.name for _m, v in analysis.surviving()}
        assert "get" in methods
        conditions = {
            c
            for _m, v in analysis.surviving()
            for c, _d in v.failures
            if v.site.info.decl.name == "get"
        }
        assert 1 in conditions  # "This violates our first condition"

    def test_example_5_5_repair_needs_xsa(self):
        program = parse_program(LIST_MANAGER_FIXED)
        without = analyze_program(program, xsa=False)
        get_violations = [
            v
            for _m, v in without.surviving()
            if v.site.info.decl.name == "get"
        ]
        # Without xSA, the repaired get is still flagged: list is a member
        # variable, so `this` appears to retain the sent heap.
        assert get_violations

        with_xsa = analyze_program(program, xsa=True)
        get_surviving = [
            v
            for _m, v in with_xsa.surviving()
            if v.site.info.decl.name == "get"
        ]
        assert not get_surviving

    def test_racy_version_flagged_even_with_xsa(self):
        # Soundness: xSA must NOT suppress the real race of Example 4.2.
        program = parse_program(LIST_MANAGER)
        analysis = analyze_program(program, xsa=True)
        methods = {v.site.info.decl.name for _m, v in analysis.surviving()}
        assert "get" in methods

    def test_use_after_send_flagged_condition3(self):
        using = ELEM_CLASS + """
        machine sender {
            void init() { }
            void go(machine payload) {
                elem e;
                int v;
                e := new elem;
                send payload eItem(e);
                v := e.get_val();
            }
            transitions { init: eGo -> go; go: eGo -> go; }
        }
        """
        program = parse_program(using)
        analysis = analyze_program(program, xsa=True)
        assert analysis.surviving()
        conditions = {c for _m, v in analysis.surviving() for c, _d in v.failures}
        assert 3 in conditions

    def test_alias_use_after_send_flagged(self):
        # The alias was created BEFORE the send: forward-only taint from
        # the send would miss it; the closure seeding must not.
        aliasing = ELEM_CLASS + """
        machine sender {
            void init() { }
            void go(machine payload) {
                elem e;
                elem alias;
                int v;
                e := new elem;
                alias := e;
                send payload eItem(e);
                v := alias.get_val();
            }
            transitions { init: eGo -> go; go: eGo -> go; }
        }
        """
        program = parse_program(aliasing)
        analysis = analyze_program(program, xsa=True)
        assert analysis.surviving()

    def test_send_of_fresh_object_verified(self):
        fresh = ELEM_CLASS + """
        machine producer {
            void init() { }
            void go(machine payload) {
                elem e;
                e := new elem;
                e.set_val(1);
                send payload eItem(e);
            }
            transitions { init: eGo -> go; go: eGo -> go; }
        }
        """
        program = parse_program(fresh)
        analysis = analyze_program(program, xsa=True)
        assert analysis.verified

    def test_double_send_in_loop_flagged(self):
        # Sending the same object on every loop iteration is a double
        # give-up; the loop revisit of the send node must be caught.
        double = ELEM_CLASS + """
        machine repeater {
            void init() { }
            void go(machine payload) {
                elem e;
                int i;
                bool more;
                e := new elem;
                i := 0;
                more := i < 2;
                while (more) {
                    send payload eItem(e);
                    i := i + 1;
                    more := i < 2;
                }
            }
            transitions { init: eGo -> go; go: eGo -> go; }
        }
        """
        program = parse_program(double)
        analysis = analyze_program(program, xsa=True)
        assert analysis.surviving()

    def test_fresh_send_in_loop_verified(self):
        # A fresh object per iteration is fine — the strong update on the
        # loop-carried variable must prevent a false positive.
        fresh_loop = ELEM_CLASS + """
        machine generator {
            void init() { }
            void go(machine payload) {
                elem e;
                int i;
                bool more;
                i := 0;
                more := i < 3;
                while (more) {
                    e := new elem;
                    send payload eItem(e);
                    i := i + 1;
                    more := i < 3;
                }
            }
            transitions { init: eGo -> go; go: eGo -> go; }
        }
        """
        program = parse_program(fresh_loop)
        analysis = analyze_program(program, xsa=True)
        assert analysis.verified


class TestXsaDriver:
    def test_driver_built_for_fixed_manager(self):
        program = parse_program(LIST_MANAGER_FIXED)
        driver = build_driver(program, "list_manager")
        assert driver is not None
        labels = {n.label for n in driver.info.cfg.nodes if n.label}
        assert any(label.startswith("dispatch_") for label in labels)

    def test_cross_state_payload_pattern(self):
        # The canonical xSA pattern: payload built in state S1, stored in
        # a field, sent from S2, field reset.  A FP without xSA; verified
        # with xSA.
        staged = ELEM_CLASS + """
        machine stager {
            elem pending;
            void init() { this.pending := null; }
            void prepare(machine payload) {
                elem e;
                e := new elem;
                this.pending := e;
            }
            void flush(machine payload) {
                elem e;
                e := this.pending;
                send payload eItem(e);
                this.pending := null;
            }
            transitions {
                init:    ePrep -> prepare, eFlush -> flush;
                prepare: ePrep -> prepare, eFlush -> flush;
                flush:   ePrep -> prepare, eFlush -> flush;
            }
        }
        """
        program = parse_program(staged)
        without = analyze_program(program, xsa=False)
        assert not without.verified
        with_xsa = analyze_program(program, xsa=True)
        assert with_xsa.verified
        assert any(reason == "xsa" for reason in with_xsa.suppressed.values())

    def test_cross_state_without_reset_stays_flagged(self):
        # Same pattern but the field is NOT reset: the machine really does
        # retain access across states.  xSA must keep the violation.
        leaky = ELEM_CLASS + """
        machine leaker {
            elem pending;
            void init() { this.pending := null; }
            void prepare(machine payload) {
                elem e;
                e := new elem;
                this.pending := e;
            }
            void flush(machine payload) {
                elem e;
                e := this.pending;
                send payload eItem(e);
            }
            void touch(machine payload) {
                elem e;
                e := this.pending;
                e.set_val(3);
            }
            transitions {
                init:    ePrep -> prepare, eFlush -> flush, eTouch -> touch;
                prepare: ePrep -> prepare, eFlush -> flush, eTouch -> touch;
                flush:   ePrep -> prepare, eFlush -> flush, eTouch -> touch;
                touch:   ePrep -> prepare, eFlush -> flush, eTouch -> touch;
            }
        }
        """
        program = parse_program(leaky)
        analysis = analyze_program(program, xsa=True)
        assert not analysis.verified


class TestReadOnlyExtension:
    READONLY_SHARING = ELEM_CLASS + """
    machine broadcaster {
        elem data;
        machine m2;
        machine m3;
        void init() { }
        void share(machine payload) {
            elem e;
            machine d2;
            machine d3;
            e := this.data;
            d2 := this.m2;
            d3 := this.m3;
            send d2 eData(e);
            send d3 eData(e);
        }
        transitions { init: eShare -> share; share: eShare -> share; }
    }
    machine reader {
        void init() { }
        void consume(elem payload) {
            int v;
            v := payload.get_val();
        }
        transitions { init: eData -> consume; consume: eData -> consume; }
    }
    """

    def test_readonly_sharing_suppressed(self):
        program = parse_program(self.READONLY_SHARING)
        without = analyze_program(program, xsa=True, readonly=False)
        assert not without.verified  # double-send of the same reference
        with_ro = analyze_program(program, xsa=True, readonly=True)
        assert with_ro.verified
        assert any(r == "readonly" for r in with_ro.suppressed.values())

    def test_mutating_reader_blocks_suppression(self):
        mutating = self.READONLY_SHARING.replace(
            "v := payload.get_val();", "payload.set_val(9); v := 0;"
        )
        program = parse_program(mutating)
        with_ro = analyze_program(program, xsa=True, readonly=True)
        assert not with_ro.verified


# ---------------------------------------------------------------------------
# Summaries are a fixed point over the call graph (Python machines: the
# frontend lists methods alphabetically, so `audit` precedes its callee)
# ---------------------------------------------------------------------------
class EItem(Event):
    pass


class Reader(Machine):
    """Only iterates what it receives: read-only sharing, were it shared."""

    class Init(State):
        initial = True
        actions = {EItem: "on_item"}

    def on_item(self):
        total = 0
        for value in self.payload:
            total = total + value


class Auditor(Machine):
    """Writes the list after sending it, two calls deep.  ``audit`` sorts
    before ``scrub``: summarized in that order it sees an empty summary for
    its callee and looks as if it mutated nothing."""

    class Init(State):
        initial = True
        entry = "setup"

    def setup(self):
        self.peer = self.create_machine(Reader)
        data = [1, 2, 3]
        self.send(self.peer, EItem(data))
        self.audit(data)

    def audit(self, items):
        self.scrub(items)

    def scrub(self, items):
        items.append(0)


class Looper(Machine):
    """The same write behind two mutually recursive methods: ``ping``'s
    summary needs ``pong``'s and the other way round."""

    class Init(State):
        initial = True
        entry = "setup"

    def setup(self):
        self.peer = self.create_machine(Reader)
        data = [1, 2, 3]
        self.send(self.peer, EItem(data))
        self.ping(data)

    def ping(self, items):
        self.pong(items)

    def pong(self, items):
        items.append(0)
        if self.nondet():
            self.ping(items)


class TestSummaryFixedPoint:
    @pytest.mark.parametrize("readonly", [False, True])
    def test_write_after_send_through_a_later_declared_callee(self, readonly):
        # Failed with readonly=True while summaries were one alphabetical
        # pass: audit.mutates was empty, so the read-only extension
        # discharged a real race.
        analysis = analyze_machines([Auditor, Reader], name="audit", readonly=readonly)
        assert analysis.violation_count() == 1
        assert not analysis.suppressed
        taint = TaintEngine(analysis.program)
        assert taint.summaries[("Auditor", "audit")].mutates == {"items"}
        # One _summarize per method (callees first, nothing recursive):
        # audit, scrub, setup, on_item, two $noop.  The xSA driver is
        # queried, never summarized: nothing calls it.
        assert taint.counters["methods_summarized"] == 6
        assert analysis.solver_counters["methods_summarized"] == 6

    @pytest.mark.parametrize("readonly", [False, True])
    def test_recursive_component_is_iterated_to_its_fixed_point(self, readonly):
        analysis = analyze_machines([Looper, Reader], name="loop", readonly=readonly)
        assert analysis.violation_count() == 1
        assert not analysis.suppressed
        taint = TaintEngine(analysis.program)
        components = {
            tuple(info.decl.name for info in component): recursive
            for component, recursive in taint._call_components()
            if component[0].class_name == "Looper"
        }
        assert components == {
            ("$noop",): False,
            ("ping", "pong"): True,  # completed before its caller
            ("setup",): False,
        }
        assert list(components).index(("ping", "pong")) < list(components).index(("setup",))
        for name in ("ping", "pong"):
            assert taint.summaries[("Looper", name)].mutates == {"items"}
        # {ping, pong} three times round (both change, ping changes, none
        # does); setup, on_item and the two $noop once each.
        assert taint.counters["methods_summarized"] == 6 + 4

    def test_a_method_calling_itself_is_a_recursive_component(self):
        program = parse_program(
            ELEM_CLASS
            + """
        class walker {
            void walk(walker self2, elem e) { elem n; n := e.get_next(); self2.walk(self2, n); }
        }
        """
        )
        taint = TaintEngine(program)
        walk = [r for c, r in taint._call_components() if c[0].key == ("walker", "walk")]
        assert walk == [True]


# ---------------------------------------------------------------------------
# Known gap: summaries are forward-only taint
# ---------------------------------------------------------------------------
class EBox(Event):
    pass


class AppendBox:
    def __init__(self):
        self.items = []

    def keep(self, item):
        self.items.append(item)  # heap insertion through an alias of a field


class FieldBox:
    def __init__(self):
        self.item = None

    def keep(self, item):
        self.item = item


class BoxReader(Machine):
    class Init(State):
        initial = True
        actions = {EBox: "on_box"}

    def on_box(self):
        box = self.payload


class AppendBoxSender(Machine):
    class Init(State):
        initial = True
        entry = "setup"

    def setup(self):
        self.peer = self.create_machine(BoxReader)
        buf = [1, 2]
        box = AppendBox()
        box.keep(buf)
        self.send(self.peer, EBox(box))
        buf.append(3)


class FieldBoxSender(Machine):
    class Init(State):
        initial = True
        entry = "setup"

    def setup(self):
        self.peer = self.create_machine(BoxReader)
        buf = [1, 2]
        box = FieldBox()
        box.keep(buf)
        self.send(self.peer, EBox(box))
        buf.append(3)


class ListBoxSender(Machine):
    class Init(State):
        initial = True
        entry = "setup"

    def setup(self):
        self.peer = self.create_machine(BoxReader)
        buf = [1, 2]
        box = []
        box.append(buf)
        self.send(self.peer, EBox(box))
        buf.append(3)


@pytest.mark.parametrize(
    "sender,helpers",
    [
        pytest.param(
            AppendBoxSender,
            [AppendBox],
            marks=pytest.mark.xfail(
                strict=True,
                reason="TaintEngine._summarize seeds each role forward only: "
                "`self.items.append(item)` taints the loaded temporary, never "
                "`this`, so keep's summary has no item->this flow and the "
                "caller does not see buf inside the sent box (ROADMAP item 4)",
            ),
        ),
        (FieldBoxSender, [FieldBox]),
        (ListBoxSender, []),
    ],
)
def test_buffer_put_in_a_sent_box_and_written_afterwards_is_reported(sender, helpers):
    analysis = analyze_machines([sender, BoxReader], helpers, name="box", readonly=True)
    assert analysis.violation_count() == 1
