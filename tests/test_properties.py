"""Property-based tests (hypothesis) on the core invariants.

The headline property is Theorem 5.1: if the static analysis says a
program is race-free, no dynamically explored schedule may exhibit a race.
We check it on randomly generated machine bodies built from the paper's
statement forms.
"""

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro import DfsStrategy, RandomStrategy, ReplayStrategy, ScheduleTrace
from repro.analysis import analyze_program
from repro.analysis.frontend import ftjoin
from repro.lang import explore, parse_program
from repro.lang.interp import _VectorClock
from repro.testing import BugFindingRuntime

from .machines import Ping, RacyCounter

# ---------------------------------------------------------------------------
# Replay determinism
# ---------------------------------------------------------------------------
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**30))
def test_replay_reproduces_any_schedule(seed):
    strategy = RandomStrategy(seed=seed)
    strategy.prepare_iteration()
    runtime = BugFindingRuntime(strategy)
    original = runtime.execute(RacyCounter)

    replay_strategy = ReplayStrategy(original.trace)
    replay_strategy.prepare_iteration()
    replay_runtime = BugFindingRuntime(replay_strategy)
    replayed = replay_runtime.execute(RacyCounter)

    assert replayed.status == original.status
    assert replayed.steps == original.steps
    assert (replayed.bug is None) == (original.bug is None)
    assert not replay_strategy.diverged


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**30))
def test_seeded_random_strategy_is_deterministic(seed):
    def run():
        strategy = RandomStrategy(seed=seed)
        strategy.prepare_iteration()
        return BugFindingRuntime(strategy).execute(Ping)

    a, b = run(), run()
    assert a.trace.decisions == b.trace.decisions


# ---------------------------------------------------------------------------
# DFS enumerates distinct schedules
# ---------------------------------------------------------------------------
@settings(max_examples=10, deadline=None)
@given(arity=st.integers(min_value=2, max_value=4), depth=st.integers(min_value=1, max_value=4))
def test_dfs_enumerates_all_leaves_exactly_once(arity, depth):
    dfs = DfsStrategy()
    leaves = []
    while dfs.prepare_iteration():
        leaves.append(tuple(dfs.pick_int(arity) for _ in range(depth)))
    assert len(leaves) == arity ** depth
    assert len(set(leaves)) == len(leaves)


# ---------------------------------------------------------------------------
# Traces round-trip through JSON
# ---------------------------------------------------------------------------
decision = st.one_of(
    st.tuples(st.sampled_from(["sched", "int"]), st.integers(min_value=0, max_value=50)),
    st.tuples(st.just("bool"), st.integers(min_value=0, max_value=1)),
    st.tuples(st.just("fault"), st.integers(min_value=0, max_value=4)),
)


@settings(max_examples=50, deadline=None)
@given(decisions=st.lists(decision, max_size=30))
def test_trace_json_roundtrip(decisions):
    trace = ScheduleTrace([tuple(d) for d in decisions])
    assert ScheduleTrace.from_json(trace.to_json()).decisions == trace.decisions


# ---------------------------------------------------------------------------
# Vector clocks form the expected partial order
# ---------------------------------------------------------------------------
clock_dict = st.dictionaries(
    st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=6),
    max_size=4,
)


@settings(max_examples=60, deadline=None)
@given(a=clock_dict, b=clock_dict)
def test_vector_clock_join_is_upper_bound(a, b):
    va, vb = _VectorClock(dict(a)), _VectorClock(dict(b))
    joined = va.copy()
    joined.join(vb)
    assert va.happens_before(joined)
    assert vb.happens_before(joined)


@settings(max_examples=60, deadline=None)
@given(a=clock_dict)
def test_happens_before_reflexive(a):
    va = _VectorClock(dict(a))
    assert va.happens_before(va)


# ---------------------------------------------------------------------------
# ftype join is idempotent and commutative
# ---------------------------------------------------------------------------
base_ft = st.sampled_from(["int", "machine", "object", "none", "bool"])
ftype = st.recursive(
    base_ft,
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["list", "set", "dict"]), inner),
        st.builds(lambda parts: ("tuple", tuple(parts)), st.lists(inner, max_size=3)),
    ),
    max_leaves=5,
)


@settings(max_examples=100, deadline=None)
@given(a=ftype)
def test_ftjoin_idempotent(a):
    assert ftjoin(a, a) == a


@settings(max_examples=100, deadline=None)
@given(a=ftype, b=ftype)
def test_ftjoin_commutative_on_scalarness(a, b):
    from repro.analysis.frontend import is_scalar_ft

    left = ftjoin(a, b)
    right = ftjoin(b, a)
    # Joins agree at least on whether the result can reach the heap.
    assert is_scalar_ft(left) == is_scalar_ft(right)


# ---------------------------------------------------------------------------
# Theorem 5.1 on generated programs: verified => dynamically race-free
# ---------------------------------------------------------------------------
_OPS = [
    "e := new elem;",
    "f := new elem;",
    "e.set_val(1);",
    "f.set_next(e);",
    "e := f;",
    "this.slot := e;",
    "e := this.slot;",
    "send peer eItem(e);",
    "this.slot := null;",
]


def _build_program(op_indices):
    body = "\n            ".join(_OPS[i] for i in op_indices)
    return parse_program(
        """
    class elem {
        int val;
        elem next;
        void set_val(int v) { this.val := v; }
        void set_next(elem n) { this.next := n; }
        int get_val() { int ret; ret := this.val; return ret; }
    }
    machine producer {
        elem slot;
        void init() {
            elem e;
            elem f;
            machine peer;
            e := new elem;
            f := new elem;
            peer := create consumer();
            %s
        }
        transitions { init: eNever -> init; }
    }
    machine consumer {
        void start() { }
        void take(elem payload) {
            payload.set_val(2);
        }
        transitions { start: eItem -> take; take: eItem -> take; }
    }
    """
        % body
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    op_indices=st.lists(
        st.integers(min_value=0, max_value=len(_OPS) - 1), min_size=1, max_size=7
    )
)
def test_theorem_5_1_verified_implies_race_free(op_indices):
    program = _build_program(op_indices)
    analysis = analyze_program(program, xsa=True)
    if analysis.verified:
        result = explore(
            program, instances=["producer"], max_schedules=400, max_steps=400
        )
        assert result.race_free, (
            f"UNSOUND: verified but dynamic race found: "
            f"{[str(r) for r in result.races[:2]]} ops={op_indices}"
        )
