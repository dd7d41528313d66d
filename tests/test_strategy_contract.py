"""``SchedulingStrategy`` is the whole contract between the runtime and a
strategy.

- The runtime asks a strategy only what the class declares: a proxy that
  forwards exactly that API and records every other attribute looked up
  on it sees no lookup under any strategy, reduction, fault, monitor or
  replay campaign.
- Replay reads the trace's packed codes and answers as the
  ``(kind, value)``-tuple replay it replaced (``tests/reference_replay.py``)
  did: the same picks, divergence, temperature gate and fault outcomes
  on traces of all seven kinds, boundary values included.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.core.events import MachineId
from repro.testing import Campaign, ReplayStrategy, StrategySpec, TestConfig
from repro.testing.engine import build_runtime, resolved_program
from repro.testing.faults import FAULT_CRASH, FAULT_NONE
from repro.testing.strategies import SchedulingStrategy
from repro.testing.trace import REASON_STATE, ScheduleTrace

from .reference_replay import ReferenceReplayStrategy


class Guarded(SchedulingStrategy):
    """Forwards the declared strategy API to ``inner``; anything else the
    runtime looks up by name lands in ``misses``."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.misses = []

    def __getattr__(self, name):
        self.misses.append(name)
        return getattr(self.inner, name)

    def prepare_iteration(self):
        return self.inner.prepare_iteration()

    def pick_machine(self, enabled, current):
        return self.inner.pick_machine(enabled, current)

    def pick_bool(self):
        return self.inner.pick_bool()

    def pick_int(self, bound):
        return self.inner.pick_int(bound)

    def pick_fault(self, weight):
        return self.inner.pick_fault(weight)

    def observe_forced(self, choice):
        self.inner.observe_forced(choice)

    def attach_reduction(self, engine):
        self.inner.attach_reduction(engine)

    def is_fair(self):
        return self.inner.is_fair()

    def temperature_may_fire(self):
        return self.inner.temperature_may_fire()

    @property
    def diverged(self):
        return self.inner.diverged

    @property
    def next_fault_outcome(self):
        return self.inner.next_fault_outcome


#: The campaigns, and what the first bug of each says where it matters:
#: between them they reach every liveness report the runtime builds.
CAMPAIGNS = {
    "random": dict(program="Raft", strategy="random"),
    "fair-random": dict(program="Raft", strategy="fair-random"),
    "pct": dict(program="Raft", strategy="pct"),
    "delay-bounding": dict(program="Raft", strategy="delay-bounding"),
    "dfs": dict(program="BoundedAsync", strategy=StrategySpec("dfs", {"max_depth": 6})),
    "iddfs": dict(program="BoundedAsync", strategy="iddfs"),
    "dfs+dpor+state-cache": dict(
        program="BoundedAsync", strategy=StrategySpec("dfs", {"max_depth": 6}),
        reduction="dpor+state-cache",
    ),
    "faults": dict(program="RaftLossy", strategy="random"),
    "liveness-monitor": dict(program="TokenRing", strategy="fair-random"),
    "depth-bound-livelock": dict(
        program="Raft", strategy="random", livelock_as_bug=True, max_steps=40,
    ),
}
FIRST_BUG = {
    "faults": "at program termination",
    "liveness-monitor": "fair steps",
    "depth-bound-livelock": "potential livelock",
}


@pytest.mark.parametrize("name", sorted(CAMPAIGNS))
def test_the_runtime_asks_only_what_the_strategy_declares(name):
    config = TestConfig(
        seed=1, max_iterations=30, time_limit=None, stop_on_first_bug=False,
        **CAMPAIGNS[name],
    )
    strategy = Guarded(config.build_strategy())
    report = Campaign(config, strategy=strategy).run()
    assert report.iterations > 0
    assert strategy.misses == []
    if name in FIRST_BUG:
        assert FIRST_BUG[name] in report.first_bug.message
    if report.bugs:
        # Replay under the same proxy: the replay-only declarations are
        # read through it too.
        bug = report.bugs[0]
        replayer = Guarded(ReplayStrategy(bug.trace))
        replayer.prepare_iteration()
        program = resolved_program(config)
        runtime = build_runtime(config, replayer, program)
        result = runtime.execute(*program[:2])
        runtime.close()
        assert result.bug.message == bug.message and not result.diverged
        assert replayer.misses == []


# ----------------------------------------------------------------------
# Replay over packed codes against the tuple replay it replaced
# ----------------------------------------------------------------------
INT64 = 2 ** 63 - 1
#: Every value each of the seven kinds may hold, by tag, boundaries first.
VALUES = (
    st.sampled_from([0, 1, 2, INT64]) | st.integers(0, 4),   # sched
    st.integers(0, 1),                                        # bool
    st.sampled_from([0, 1, INT64]) | st.integers(0, 4),      # int
    st.sampled_from([0, INT64]) | st.integers(0, 2),         # monitor
    st.sampled_from([0, INT64]),                              # liveness
    st.integers(FAULT_NONE, FAULT_CRASH),                     # fault
    st.just(REASON_STATE),                                    # reduction
)
KINDS = ("sched", "bool", "int", "monitor", "liveness", "fault", "reduction")
DECISIONS = st.lists(
    st.integers(0, 6).flatmap(lambda tag: st.tuples(st.just(KINDS[tag]), VALUES[tag])),
    max_size=12,
)
MACHINES = st.sampled_from([0, 1, 2, INT64]) | st.integers(0, 4)
CALLS = st.lists(
    st.one_of(
        st.tuples(st.just("pick_machine"), st.lists(MACHINES, min_size=1, max_size=3, unique=True)),
        st.tuples(st.just("observe_forced"), MACHINES),
        st.tuples(st.just("pick_bool")),
        st.tuples(st.just("pick_int"), st.sampled_from([1, 2, 5, 2 ** 63]) | st.integers(1, 6)),
        st.tuples(st.just("pick_fault"), st.integers(0, 1000)),
        st.tuples(st.just("next_fault_outcome")),
        st.tuples(st.just("prepare_iteration")),
    ),
    max_size=16,
)


def answers(strategy, calls):
    """What ``strategy`` answers to ``calls``, with its divergence and
    temperature gate read after each."""
    seen = [strategy.prepare_iteration(), strategy.temperature_may_fire()]
    for call, *args in calls:
        if call == "pick_machine":
            answer = strategy.pick_machine([MachineId(v) for v in args[0]], None).value
        elif call == "observe_forced":
            answer = strategy.observe_forced(MachineId(args[0]))
        else:
            answer = getattr(strategy, call)(*args)
        seen.append((call, answer, strategy.diverged, strategy.temperature_may_fire()))
    return seen


@settings(max_examples=100, deadline=None, derandomize=True)
@given(decisions=DECISIONS, calls=CALLS)
def test_replay_answers_as_the_tuple_replay(decisions, calls):
    trace = ScheduleTrace.from_pairs([list(pair) for pair in decisions])
    assert answers(ReplayStrategy(trace), calls) == answers(
        ReferenceReplayStrategy(trace), calls
    )
