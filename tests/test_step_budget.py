"""The cost of one scheduling step, gated on exact counts — no clock.

``tools/step_census.py`` counts the Python frames entered per
``report.total_steps`` of seeded campaigns (``sys.setprofile``); the
budgets below are the measured values rounded up, so a change that adds
a frame to the step loop — a wrapper around the scheduling point, a
``MachineId`` hashed per enabled machine, a strategy draw through
``Random.randrange`` — turns this file red on any host.  The commit
before the budgets read 11.0 (random), 17.7, 16.6, 11.6, 10.9, 19.2
(pct) and 17.7 (delay-bounding).

Next to it, what the frame savings must not have changed: the seeded
strategies' ``pick_int`` / ``pick_fault`` are ``Random.randrange`` bit
for bit, and a send still reaches only the machine its target names.
"""

import importlib.util
import random
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import Event, Machine, State
from repro.core.events import MachineId
from repro.testing import (
    BugFindingRuntime,
    DelayBoundingStrategy,
    FairRandomStrategy,
    PctStrategy,
    RandomStrategy,
    ThreadedRuntime,
)
from repro.testing.faults import FAULT_SCALE

_spec = importlib.util.spec_from_file_location(
    "step_census", Path(__file__).resolve().parents[1] / "tools" / "step_census.py"
)
step_census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_census)

#: Python frames per scheduling step: bare random, then soak_hooks' six
#: (registry faults and monitors, coverage and the event log on; their
#: mean, 7.5, was 15.6), then the two benchmark programs that send from a
#: comprehension and from a lambda (5.28 and 4.91 when they first
#: compiled; they ran on threads before), then systematic search: DFS
#: without reduction, under ``dpor+state-cache``, iterative deepening
#: under ``dpor+state-cache``, and DFS over crash-fault choice points
#: (5.71, 26.46, 27.19 and 7.47 when they were added; the two reduced
#: rows read 25.13 and 25.17 once the DFS stack, not a trace comparison,
#: gated the state cache and the clause store was gone).
BUDGETS = {
    "random": 7.0,
    "RaftLossy:random": 10.0,
    "TwoPhaseCommitCrash:random": 9.0,
    "ProcessScheduler:fair-random": 5.5,
    "TokenRing:fair-random": 5.0,
    "Raft:pct": 7.5,
    "TwoPhaseCommit:delay-bounding": 8.0,
    "FanOutCoordinator:random": 5.5,
    "LambdaRelay:random": 5.0,
    "BoundedAsync:dfs": 6.0,
    "BoundedAsync:dfs+dpor+state-cache": 25.5,
    "BoundedAsync:iddfs+dpor+state-cache": 25.5,
    "TwoPhaseCommitCrash:dfs": 7.5,
}


class TestStepBudget:
    def test_every_configuration_has_a_budget(self):
        assert set(BUDGETS) == {name for name, *_ in step_census.CONFIGURATIONS}

    @pytest.mark.parametrize("name", sorted(BUDGETS))
    def test_calls_per_step(self, name):
        row = step_census.census(name)
        assert row["steps"] > 500
        assert row["calls_per_step"] <= BUDGETS[name], row["by_module"]


# ----------------------------------------------------------------------
SEEDED = (RandomStrategy, FairRandomStrategy, PctStrategy, DelayBoundingStrategy)
SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)


@pytest.mark.parametrize("strategy_cls", SEEDED)
class TestDrawsAreRandrange:
    @SETTINGS
    @given(
        seed=st.integers(0, 2**31 - 1),
        bounds=st.lists(
            st.one_of(st.integers(1, 2**70), st.sampled_from([1, 2, 3, 2**32, 2**64])),
            min_size=1, max_size=12,
        ),
    )
    def test_pick_int(self, strategy_cls, seed, bounds):
        strategy = strategy_cls(seed=seed)
        strategy.prepare_iteration()
        reference = random.Random()
        reference.setstate(strategy._rng.getstate())
        for bound in bounds:
            assert strategy.pick_int(bound) == reference.randrange(bound)
            assert strategy._rng.getstate() == reference.getstate()

    @SETTINGS
    @given(
        seed=st.integers(0, 2**31 - 1),
        weights=st.lists(st.integers(-1, FAULT_SCALE), min_size=1, max_size=12),
    )
    def test_pick_fault(self, strategy_cls, seed, weights):
        strategy = strategy_cls(seed=seed)
        strategy.prepare_iteration()
        reference = random.Random()
        reference.setstate(strategy._rng.getstate())
        for weight in weights:
            expected = weight > 0 and reference.randrange(FAULT_SCALE) < weight
            assert strategy.pick_fault(weight) == expected
            assert strategy._rng.getstate() == reference.getstate()

    def test_empty_range(self, strategy_cls):
        with pytest.raises(ValueError):
            strategy_cls(seed=1).pick_int(0)


# ----------------------------------------------------------------------
class EPing(Event):
    pass


class Sink(Machine):
    class Listening(State):
        initial = True
        actions = {EPing: "on_ping"}

    def on_ping(self):
        type(self).pings.append(self.id)


class Other(Sink):
    """Another class in seat 1, for the stale-id case."""


class Sender(Machine):
    """Creates a sink, then sends to every id the test planted."""

    class Init(State):
        initial = True
        entry = "setup"

    def setup(self):
        self.sink = self.create_machine(self.payload["sink"])
        self.payload["created"].append(self.sink)
        for target in self.payload["targets"]:
            self.send(target, EPing())


@pytest.mark.parametrize(
    "runtime_cls", [BugFindingRuntime, ThreadedRuntime], ids=["inline", "threads"]
)
class TestSendReachesOnlyItsTarget:
    def run(self, runtime_cls, sink, targets):
        Sink.pings = []
        created = []
        runtime = runtime_cls(RandomStrategy(seed=3))
        result = runtime.execute(
            Sender, {"sink": sink, "targets": targets, "created": created}
        )
        assert result.status == "ok", result.bug
        return created[0]

    def test_foreign_and_stale_ids_reach_no_machine(self, runtime_cls):
        stale = self.run(runtime_cls, Sink, [])  # another runtime's, too
        assert (stale.value, stale.name) == (1, "Sink")
        beyond = MachineId(7, "Sink")  # a seat this execution never fills
        monitor_like = MachineId(-1, "Sink")  # negative: not a seat index
        # Seat 1 holds an Other now: the Sink id of the execution before
        # names no machine of this one.
        self.run(runtime_cls, Other, [stale, beyond, monitor_like, None, 1])
        assert Sink.pings == []

    def test_an_equal_id_reaches_the_machine(self, runtime_cls):
        # Ids are values: a copy (a deep-copied payload, an id rebuilt
        # from a message) names the same machine as the original.
        sink = self.run(runtime_cls, Sink, [MachineId(1, "Sink")])
        assert Sink.pings == [sink]
