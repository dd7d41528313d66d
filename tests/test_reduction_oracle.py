"""The reduction engine's compact bookkeeping held against its oracle.

The engine logs a decision as one ``array('i')`` offset into ``effects``
(the chosen machine is ``effects[offset]``) plus, for a decision a DFS
frame bound, one entry of a dict of frame depths; it keeps its seen
states as a dict of queued-use counts beside a ``deque`` of uses.
``tests/reference_reduction.py`` keeps the tuple step log, its race
analysis and the ``OrderedDict`` LRU it replaced, and this file holds
the two to the same answers:

- the seen-set, on random ``check_state`` sequences under every small
  ``state_cache_size``: every verdict, the cached states in LRU order
  and the counters, after every call;
- the race analysis, on every execution of the ``sweep`` workload's
  four recall cases and of forty derandomized generated programs
  (``tests/generated.py``) at every depth 1..4, under both reduced modes: the
  backtrack insertions ``(depth, machine)``, in order.  Mismatches are
  collected in a list and asserted after the campaign: an ``assert``
  inside a scheduling point is swallowed as a program bug (see
  ``tests/test_fingerprint.py``);
- what the bookkeeping costs: bytes per decision and per distinct state
  on the ``sweep`` warm-up's TokenRing campaign (``tools/retention.py``,
  ``tracemalloc`` peaks, no clock).
"""

import importlib.util
from collections import Counter
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.testing import BugFindingRuntime, Campaign, StrategySpec, TestConfig
from repro.testing.reduction import DIGEST_SIZE, ReductionEngine

from .generated import build, programs
from .reference_reduction import ReferenceSeenSet, ReferenceStepLog
from .test_corpus import CORPUS
from .test_fingerprint import RECALL_CASES

_spec = importlib.util.spec_from_file_location(
    "retention", Path(__file__).resolve().parents[1] / "tools" / "retention.py"
)
retention = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(retention)

MODES = ("dpor", "dpor+state-cache")


# ---------------------------------------------------------------------------
# The seen-set
# ---------------------------------------------------------------------------
def lru_order(engine):
    """The engine's cached fingerprints, least recently used first: the
    last queued use of each, in queue order."""
    order, met = [], set()
    for fingerprint in reversed(engine._uses):
        if fingerprint not in met:
            met.add(fingerprint)
            order.append(fingerprint)
    return order[::-1]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    size=st.integers(min_value=1, max_value=8),
    calls=st.lists(st.one_of(st.integers(min_value=0, max_value=11), st.none()), max_size=80),
)
def test_seen_set_answers_as_the_ordered_dict_does(size, calls):
    """``None`` is a ``reset_search``; an integer, a consultation of the
    state with that fingerprint."""
    engine = ReductionEngine("dpor+state-cache", size)
    reference = ReferenceSeenSet(size)
    for call in calls:
        if call is None:
            engine.reset_search()
            reference.reset_search()
        else:
            fingerprint = bytes([call]) * DIGEST_SIZE
            assert engine.check_state(fingerprint) == reference.check_state(fingerprint)
        assert lru_order(engine) == reference.cached()
        assert engine._seen == Counter(engine._uses)
        assert engine.distinct_states == reference.distinct_states
        assert engine.state_prunes == reference.state_prunes
        # Hits re-queue a fingerprint; the queue stays bounded all the same.
        assert len(engine._uses) <= 2 * len(engine._seen)


# ---------------------------------------------------------------------------
# The race analysis
# ---------------------------------------------------------------------------
def watch(engine, mismatches, insertions):
    """Feed every decision ``engine`` logs to a reference step log too,
    and at every analysis compare the backtrack insertions of the two;
    a mismatch is appended to ``mismatches``, the insertion count of
    every analysis to ``insertions``.  The strategy and the runtime call
    the engine's methods by attribute, so instance attributes shadow
    them."""
    reference = ReferenceStepLog()
    begin, bind, chose, analyze = (
        engine.begin_execution, engine.bind_frame, engine.chose, engine.analyze,
    )

    def begin_execution():
        reference.begin_execution()
        begin()

    def bind_frame(depth):
        reference.bind_frame(depth)
        bind(depth)

    def chose_checked(value):
        reference.chose(value, engine.effects)
        chose(value)

    def analyze_checked(add_backtrack):
        want, got = [], []
        reference.analyze(engine.effects, lambda depth, value: want.append((depth, value)))

        def add(depth, value):
            got.append((depth, value))
            add_backtrack(depth, value)

        analyze(add)
        insertions.append(len(got))
        if got != want:
            mismatches.append((got, want))

    engine.begin_execution = begin_execution
    engine.bind_frame = bind_frame
    engine.chose = chose_checked
    engine.analyze = analyze_checked


def checked_campaign(**fields):
    """A DFS campaign to exhaustion whose engine is watched; returns the
    report, the mismatches and the insertion counts."""
    mismatches, insertions = [], []

    class Watched(BugFindingRuntime):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            watch(self._red, mismatches, insertions)

    report = Campaign(TestConfig(
        max_iterations=1_000_000, time_limit=None, stop_on_first_bug=False,
        runtime_factory=Watched, **fields,
    )).run()
    assert report.exhausted
    return report, mismatches, insertions


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("program,depth,max_steps", RECALL_CASES)
def test_backtracks_match_on_the_sweep_recall_cases(program, depth, max_steps, mode):
    report, mismatches, insertions = checked_campaign(
        program=program, strategy=("dfs", {"max_depth": depth}),
        max_steps=max_steps, reduction=mode,
    )
    assert mismatches == []
    # Every execution is analysed, the last by the prepare_iteration
    # that ends the search.
    assert len(insertions) == report.iterations
    assert sum(insertions) > 0


def test_backtracks_match_on_generated_programs():
    """Forty derandomized programs, each at every depth 1..4."""
    analysed = []

    @settings(CORPUS, max_examples=40)
    @given(program=programs())
    def check(program):
        machines, faults, monitors = build(program)
        for depth in range(1, 5):
            for mode in MODES:
                _, mismatches, insertions = checked_campaign(
                    program=machines[0], strategy=StrategySpec("dfs", {"max_depth": depth}),
                    reduction=mode, faults=faults, monitors=monitors, max_steps=200,
                )
                assert mismatches == [], (depth, mode)
                analysed.extend(insertions)

    check()
    # Not vacuous: 209 insertions when this was written.
    assert sum(analysed) > 100, sum(analysed)


# ---------------------------------------------------------------------------
# What the bookkeeping costs
# ---------------------------------------------------------------------------
def test_bytes_per_decision_and_per_distinct_state():
    """The bounds sit between the Python-object bookkeeping (120 B per
    decision for a tuple and an offset int, 149 B per state for an
    ``OrderedDict`` entry and its digest) and the compact one (23 B and
    116 B on CPython 3.11)."""
    row = retention.reduction_bytes()
    assert row["decisions"] == row["states"] == 12_501
    assert row["per_decision"] < 70, row
    assert row["per_state"] < 132, row
