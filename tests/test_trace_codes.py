"""The packed schedule trace and the uncopied enabled set.

A trace keeps one list of codes, ``value << 3 | tag``, and derives the
tag and value columns where they are read.  Every view a caller has of
it — the digest, the wire form, the text, length, equality and hash, and
what ``from_pairs`` refuses — must be what the two-array trace it
replaced gave; ``tests/reference_trace.py`` keeps that one verbatim as
the oracle.

The runtime hands ``pick_machine`` its own enabled list, not a copy, so
every in-tree strategy must leave it as it found it; the contract test
runs each of them through a campaign and checks the list after every
consult.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import TestConfig
from repro.testing import (
    Campaign,
    DelayBoundingStrategy,
    DfsStrategy,
    FairRandomStrategy,
    IterativeDeepeningDfsStrategy,
    PctStrategy,
    RandomStrategy,
    ScheduleTrace,
)
from repro.testing.engine import build_runtime, resolved_program
from repro.testing.faults import FAULT_CRASH, FAULT_NONE
from repro.testing.strategies import ReplayStrategy
from repro.testing.trace import (
    _TAG_OF,
    BOOL,
    FAULT,
    INT,
    LIVENESS,
    MONITOR,
    REASON_STATE,
    REDUCTION,
    SCHED,
)

from .reference_trace import ScheduleTrace as ReferenceTrace

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

INT64 = 2 ** 63 - 1
#: Any 64-bit value a kind may hold, the boundaries drawn often.
WIDE = st.one_of(st.sampled_from([0, 1, INT64]), st.integers(0, INT64))
VALUES = {
    SCHED: WIDE,
    BOOL: st.integers(0, 1),
    INT: WIDE,
    MONITOR: WIDE,
    LIVENESS: WIDE,
    FAULT: st.integers(FAULT_NONE, FAULT_CRASH),
    REDUCTION: st.just(REASON_STATE),
}
DECISION = st.sampled_from(sorted(VALUES)).flatmap(
    lambda kind: st.tuples(st.just(kind), VALUES[kind])
)
DECISIONS = st.lists(DECISION, max_size=40)

#: Wire data ``from_pairs`` may be handed: well-formed pairs, values out
#: of their kind's range or of any integer type, unknown kinds and pairs
#: of the wrong shape.
BAD_VALUE = st.sampled_from([-1, INT64 + 1, 2 ** 64, 2 ** 70, 2, 1.5, True, None, "3"])
PAIR = st.one_of(
    DECISION.map(list),
    st.tuples(st.sampled_from(sorted(VALUES)), BAD_VALUE).map(list),
    st.tuples(st.sampled_from(["schedule", "", "SCHED"]), WIDE).map(list),
    st.sampled_from([[], ["sched"], ["sched", 0, 0], "sched", 7, None]),
)
PAIRS = st.one_of(
    st.lists(DECISION.map(list), max_size=12),
    st.lists(PAIR, max_size=6),
    st.sampled_from([None, {}, "[]", (("sched", 0),)]),
)


def recorded(decisions):
    """The trace the runtime's way: one ``recorder()`` call per decision."""
    trace = ScheduleTrace()
    record = trace.recorder()
    for kind, value in decisions:
        record(value << 3 | _TAG_OF[kind])
    return trace


def views(trace):
    return (
        trace.fingerprint(), trace.to_pairs(), str(trace), len(trace),
        trace.decisions, list(trace), hash(trace),
    )


@SETTINGS
@given(DECISIONS)
def test_every_view_is_the_two_array_traces(decisions):
    oracle = ReferenceTrace(decisions)
    built = ScheduleTrace(decisions)
    by_kind = ScheduleTrace()
    for kind, value in decisions:
        by_kind.record(kind, value)
    for trace in (built, by_kind, recorded(decisions)):
        assert views(trace) == views(oracle)
        assert trace == built
    assert ScheduleTrace.from_pairs(oracle.to_pairs()) == built


@SETTINGS
@given(DECISIONS, DECISIONS)
def test_equality_and_hash_follow_the_oracle(first, second):
    assert (ScheduleTrace(first) == ScheduleTrace(second)) == (
        ReferenceTrace(first) == ReferenceTrace(second)
    )
    assert hash(ScheduleTrace(second)) == hash(ReferenceTrace(second))


def outcome(from_pairs, pairs):
    try:
        trace = from_pairs(pairs)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    return trace.to_pairs(), trace.fingerprint()


@SETTINGS
@given(PAIRS)
def test_from_pairs_refuses_what_the_oracle_refuses(pairs):
    assert outcome(ScheduleTrace.from_pairs, pairs) == outcome(
        ReferenceTrace.from_pairs, pairs
    )


def test_a_digest_grows_with_its_trace():
    trace = ScheduleTrace([(SCHED, 0)])
    oracle = ReferenceTrace([(SCHED, 0)])
    assert trace.fingerprint() == oracle.fingerprint()
    trace.recorder()(INT64 << 3 | _TAG_OF[INT])
    oracle.record(INT, INT64)
    assert trace.fingerprint() == oracle.fingerprint()


# ---------------------------------------------------------------------------
# The enabled set a strategy is handed is the runtime's own
# ---------------------------------------------------------------------------
def checked(cls):
    """``cls`` with a ``pick_machine`` that fails on a changed list."""

    class Checked(cls):
        consults = 0

        def pick_machine(self, enabled, current):
            before = list(enabled)
            choice = super().pick_machine(enabled, current)
            assert enabled == before, f"{cls.__name__} changed the enabled set"
            assert choice in before
            type(self).consults += 1
            return choice

    return Checked


STRATEGIES = {
    "random": (lambda: checked(RandomStrategy)(seed=3), "none"),
    "fair-random": (lambda: checked(FairRandomStrategy)(seed=3), "none"),
    "pct": (lambda: checked(PctStrategy)(seed=3), "none"),
    "delay-bounding": (lambda: checked(DelayBoundingStrategy)(seed=3), "none"),
    "dfs": (lambda: checked(DfsStrategy)(max_depth=8), "none"),
    "iddfs": (lambda: checked(IterativeDeepeningDfsStrategy)(initial_depth=2), "none"),
    "dfs+dpor": (lambda: checked(DfsStrategy)(max_depth=8), "dpor"),
}


def campaign(name):
    build, reduction = STRATEGIES[name]
    strategy = build()
    config = TestConfig(
        "BoundedAsync", max_iterations=40, stop_on_first_bug=False,
        reduction=reduction, time_limit=None,
    )
    return config, strategy, Campaign(config, strategy=strategy).run()


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_a_strategy_leaves_the_enabled_set_as_it_found_it(name):
    _, strategy, report = campaign(name)
    assert report.iterations > 1
    assert type(strategy).consults > report.iterations


def test_replay_leaves_the_enabled_set_as_it_found_it():
    config = TestConfig("BoundedAsync", max_iterations=1)
    program = resolved_program(config)
    walk = RandomStrategy(seed=3)
    walk.prepare_iteration()
    trace = build_runtime(config, walk, program).execute(*program[:2]).trace
    strategy = checked(ReplayStrategy)(trace)
    strategy.prepare_iteration()
    result = build_runtime(config, strategy, program).execute(*program[:2])
    assert not result.diverged and result.trace == trace
    assert type(strategy).consults > 10
