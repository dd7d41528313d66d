"""The sparse taint solver against the naive fixpoint it replaced.

``tests/reference_taint.py`` holds the round-robin drivers as they were;
this module asserts that the worklist solver returns the same ``FactMap``
(every node's IN and OUT set) on every query the analysis asks on the 22
Table 1 programs — base methods and xSA drivers — that a whole analysis run
on the oracle ends in the same summaries, gives-up sets and verdicts, and
that both agree on Hypothesis-generated methods seeded at every node.  The
design rests on one fact, tested directly: the transfer functions are
distributive and only treat the variables their statement names specially.
So the engine's rows, written down per statement kind, are checked against
the rows probed from the oracle's set-level transfer functions: two
definitions of one semantics.
"""

import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis import OwnershipAnalysis, TaintEngine, analyze_program, build_driver
from repro.analysis.builtins import builtin_classes
from repro.analysis.taint import RET, MethodInfo
from repro.lang.ir import (
    Assign,
    Call,
    ClassDecl,
    Const,
    If,
    LoadField,
    MachineDecl,
    MethodDecl,
    New,
    Program,
    Return,
    Send,
    StoreField,
    VarDecl,
    While,
)

from . import reference_taint as reference
from .test_golden_table1 import cases, lower


def assert_same_facts(actual, expected, what):
    assert actual.ins == expected.ins, what
    assert actual.outs == expected.outs, what


def ref_vars_in(info, taints):
    return frozenset(v for v in taints if info.is_ref(v))


# ----------------------------------------------------------------------
# The analysed programs
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=cases(), ids="/".join)
def analysed(request):
    """Program, engine, the ownership analysis on it, and every machine's
    xSA driver (built, never added to the engine's methods)."""
    program = lower(*request.param)
    taint = TaintEngine(program)
    ownership = OwnershipAnalysis(program, taint)
    drivers = [build_driver(program, machine) for machine in program.machines]
    drivers = [driver.info for driver in drivers if driver is not None]
    return program, taint, ownership, drivers


def methods_and_drivers(taint, drivers):
    return [*taint.methods.values(), *drivers]


def test_every_query_of_the_analysis_matches_the_oracle(analysed):
    _program, taint, ownership, drivers = analysed
    queries = 0
    for info in methods_and_drivers(taint, drivers):
        # A closure no give-up site asks for: what may reach `this` at Exit.
        assert_same_facts(
            taint.closure_facts(info, "this", info.cfg.exit),
            reference.closure_facts(taint, info, "this", info.cfg.exit),
            f"{info.key} this @Exit",
        )
        for site in ownership.give_up_sites(info):
            what = f"{info.key} {site.var} @n{site.node.index}"
            closure = taint.closure_facts(info, site.var, site.node)
            assert_same_facts(
                closure, reference.closure_facts(taint, info, site.var, site.node), what
            )
            # Condition 3's forward query, seeded with the closure at N.
            seeds = {site.node.index: ref_vars_in(info, closure.in_of(site.node))}
            assert_same_facts(
                taint.forward_facts(info, seeds),
                reference.forward_facts(taint, info, seeds),
                what,
            )
            queries += 1
        # The loaded-field / read-only forward queries: one per load.
        for node in info.cfg.statement_nodes():
            if isinstance(node.stmt, LoadField):
                seeds = {s.index: frozenset({node.stmt.dst}) for s in node.succs}
                assert_same_facts(
                    taint.forward_facts(info, seeds),
                    reference.forward_facts(taint, info, seeds),
                    f"{info.key} load @n{node.index}",
                )
    assert drivers and (queries or _program.name == "German")


def test_a_whole_analysis_on_the_oracle_ends_in_the_same_place(analysed):
    program, _taint, _ownership, _drivers = analysed
    sparse, oracle = TaintEngine(program), reference.ReferenceEngine(program)
    assert sparse.summaries == oracle.summaries
    assert (
        OwnershipAnalysis(program, sparse).gives_up
        == OwnershipAnalysis(program, oracle).gives_up
    )
    ours = analyze_program(program, xsa=True, readonly=True, taint=sparse)
    theirs = analyze_program(program, xsa=True, readonly=True, taint=oracle)
    assert ours.suppressed == theirs.suppressed
    assert [
        (machine, v.site.loc_key, v.site.var, v.failures, v.loaded_fields)
        for machine, v in ours.violations
    ] == [
        (machine, v.site.loc_key, v.site.var, v.failures, v.loaded_fields)
        for machine, v in theirs.violations
    ]
    # xSA adds no method, so no summary: both engines end with the ones
    # they started with.
    assert sparse.summaries == oracle.summaries


def test_transfer_functions_are_distributive_on_the_analysed_programs(analysed):
    _program, taint, _ownership, drivers = analysed
    rng = random.Random(15)
    for info in methods_and_drivers(taint, drivers):
        names = sorted(info.ref_vars | {RET, "$scalar"})
        for node in info.cfg.nodes:
            sample = frozenset(rng.sample(names, rng.randint(0, min(4, len(names)))))
            assert_distributive(taint, info, node, sample)


def assert_distributive(taint, info, node, taints):
    for transfer in (reference.fwd, reference.bwd):
        assert transfer(taint, info, node, frozenset()) == frozenset()
        pointwise = frozenset().union(
            *(transfer(taint, info, node, frozenset({v})) for v in taints)
        )
        assert transfer(taint, info, node, taints) == pointwise, (node, taints)
    # Only the variables the statement names are special; `return` names $ret.
    named = set(node.stmt.vars_occurring() if node.stmt else ())
    if isinstance(node.stmt, Return):
        named.add(RET)
    for var in taints - named:
        assert reference.fwd(taint, info, node, frozenset({var})) == {var}
        assert reference.bwd(taint, info, node, frozenset({var})) == {var}


def test_built_rows_equal_the_rows_probed_from_the_oracle(analysed):
    _program, taint, _ownership, drivers = analysed
    nodes = 0
    for info in methods_and_drivers(taint, drivers):
        nodes += assert_rows_match(taint, info)
    assert nodes > 0


def assert_rows_match(taint, info):
    """Every node's built rows equal the probed ones, as ``var -> set``
    (the order inside a row is not part of its meaning)."""
    def as_sets(row):
        return {var: frozenset(targets) for var, targets in (row or {}).items()}

    for node in info.cfg.nodes:
        built = taint._rows(info, node)
        probed = reference.rows(taint, info, node)
        for direction, mine, theirs in zip(("fwd", "bwd"), built, probed):
            assert as_sets(mine) == as_sets(theirs), (info.key, node, direction)
    return len(info.cfg.nodes)


# ----------------------------------------------------------------------
# Generated methods
# ----------------------------------------------------------------------
# Five variables: two of a user class, a builtin list, one of a class the
# program does not define (calls on it are havocked) and a scalar.
VARS = {"a": "Box", "b": "Box", "l": "list", "o": "Opaque", "n": "int"}
REFS = [v for v, t in VARS.items() if t != "int"]
names = st.sampled_from(sorted(VARS))
refs = st.sampled_from(REFS)

CALLS = st.one_of(
    # user class: a getter, a setter, and a method defined *after* its caller
    st.builds(lambda d, r: Call(d, r, "get", []), st.none() | names, st.sampled_from("ab")),
    st.builds(lambda r, x: Call(None, r, "set", [x]), st.sampled_from("ab"), names),
    st.builds(lambda d, r, x: Call(d, r, "swap", [x]), st.none() | names, st.sampled_from("ab"), names),
    # builtin summaries, and a builtin method that has none (havoc)
    st.builds(lambda x: Call(None, "l", "append", [x]), names),
    st.builds(lambda d: Call(d, "l", "pop", []), names),
    st.builds(lambda d, x: Call(d, "l", "frobnicate", [x]), st.none() | names, names),
    # havoc: unknown class, scalar receiver
    st.builds(lambda d, x, y: Call(d, "o", "anything", [x, y]), st.none() | names, names, names),
    st.builds(lambda d, x: Call(d, "n", "bit_length", [x]), names, names),
)

SIMPLE = st.one_of(
    st.builds(Assign, names, names),
    st.builds(LoadField, names, st.sampled_from(["f", "g"])),
    st.builds(StoreField, st.sampled_from(["f", "g"]), names),
    st.builds(New, refs, st.just("Box")),
    st.builds(Const, names, st.none()),
    st.builds(Send, st.just("n"), st.just("E"), st.none() | refs),
    st.builds(Return, st.none() | names),
    CALLS,
)


def count(body):
    return sum(
        1 + count(getattr(s, "then_body", [])) + count(getattr(s, "else_body", []))
        + count(getattr(s, "body", []))
        for s in body
    )


def bodies(depth=2):
    if depth == 0:
        return st.lists(SIMPLE, max_size=4)
    inner = bodies(depth - 1)
    compound = st.one_of(
        SIMPLE,
        st.builds(If, st.just("n"), inner, inner),
        st.builds(While, st.just("n"), inner),
    )
    return st.lists(compound, max_size=5)


METHOD_BODIES = bodies().filter(lambda body: 1 <= count(body) <= 12)


def program_with(body):
    """``M.run(a, l)`` holding ``body``, next to a Box class whose ``swap``
    calls a method declared after it."""
    box = ClassDecl(
        name="Box",
        fields=[VarDecl("item", "Box")],
        methods={
            "swap": MethodDecl(
                "swap", [VarDecl("x", "Box")], [VarDecl("old", "Box")],
                [Call("old", "this", "get", []), Call(None, "this", "set", ["x"]), Return("old")],
                ret_type="Box",
            ),
            "get": MethodDecl(
                "get", [], [VarDecl("r", "Box")], [LoadField("r", "item"), Return("r")],
                ret_type="Box",
            ),
            "set": MethodDecl("set", [VarDecl("x", "Box")], [], [StoreField("item", "x")]),
        },
    )
    run = MethodDecl(
        "run",
        params=[VarDecl("a", "Box"), VarDecl("l", "list")],
        locals=[VarDecl(v, t) for v, t in VARS.items() if v not in ("a", "l")],
        body=body,
    )
    machine = ClassDecl(
        name="M", fields=[VarDecl("f", "Box"), VarDecl("g", "Box")], methods={"run": run}
    )
    program = Program(name="generated")
    program.classes.update(builtin_classes())
    program.classes["Box"] = box
    program.classes["M"] = machine
    program.machines["M"] = MachineDecl(name="M", class_name="M", initial="run")
    return program


@settings(max_examples=120, deadline=None)
@given(body=METHOD_BODIES, data=st.data())
def test_generated_methods_match_the_oracle_seeded_at_every_node(body, data):
    program = program_with(body)
    taint, oracle = TaintEngine(program), reference.ReferenceEngine(program)
    assert taint.summaries == oracle.summaries
    assert (
        OwnershipAnalysis(program, taint).gives_up
        == OwnershipAnalysis(program, oracle).gives_up
    )
    info = taint.methods[("M", "run")]
    seed_vars = [*VARS, "this", RET]
    for node in info.cfg.nodes:
        for var in seed_vars:
            assert_same_facts(
                taint.closure_facts(info, var, node),
                reference.closure_facts(taint, info, var, node),
                f"closure {var} @n{node.index}",
            )
            seeds = {node.index: frozenset({var})}
            assert_same_facts(
                taint.forward_facts(info, seeds),
                reference.forward_facts(taint, info, seeds),
                f"forward {var} @n{node.index}",
            )
        sample = frozenset(data.draw(st.sets(st.sampled_from(seed_vars), max_size=4)))
        assert_distributive(taint, info, node, sample)
    for method in taint.methods.values():
        assert_rows_match(taint, method)
    # Several seeds at several nodes at once.
    seeds = data.draw(
        st.dictionaries(
            st.sampled_from([n.index for n in info.cfg.nodes]),
            st.frozensets(st.sampled_from(seed_vars), max_size=3),
            max_size=3,
        )
    )
    assert_same_facts(
        taint.forward_facts(info, seeds), reference.forward_facts(taint, info, seeds), seeds
    )


# ----------------------------------------------------------------------
# What is cached, and for how long
# ----------------------------------------------------------------------
def test_a_same_key_driver_is_never_served_the_previous_cfgs_facts():
    # Flows are keyed by the MethodInfo object, not by the method key: a
    # second driver of the same machine gets its own relation and closures.
    program = program_with([StoreField("f", "a"), Send("n", "E", "a")])
    taint = TaintEngine(program)

    def driver(body):
        return MethodInfo("M", MethodDecl("$xsa_M", [], [VarDecl("p", "Box"), VarDecl("q", "Box")], body))

    first = driver([Assign("q", "p"), Send("n", "E", "q")])
    send = first.cfg.statement_nodes()[-1]
    assert "p" in taint.closure_facts(first, "q", send).out_of(first.cfg.entry)

    second = driver([New("q", "Box"), Send("n", "E", "q")])  # same key, same shape
    assert second.key == first.key
    send = second.cfg.statement_nodes()[-1]
    facts = taint.closure_facts(second, "q", send)
    assert "p" not in facts.out_of(second.cfg.entry)
    assert_same_facts(facts, reference.closure_facts(taint, second, "q", send), "second")
    assert ("M", "$xsa_M") not in taint.methods


def test_solver_counters_are_exact():
    program = lower("BoundedAsync", "correct")
    first, second = TaintEngine(program), TaintEngine(program)
    assert first.counters == second.counters
    assert first.counters["queries"] > 0 and first.counters["cache_hits"] == 0
    info = next(iter(first.methods.values()))
    before = dict(first.counters)
    first.closure_facts(info, "this", info.cfg.entry)
    first.closure_facts(info, "this", info.cfg.entry)
    assert first.counters["queries"] == before["queries"] + 1
    assert first.counters["cache_hits"] == 1
    assert first.counters["facts_derived"] > before["facts_derived"]
