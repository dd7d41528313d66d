"""Schedule-space reduction: DPOR and state caching, for the DFS family.

Covers :mod:`repro.testing.reduction` end to end: its refusal off the
DFS family (before any runtime is built or any fleet worker forked),
the stable state hashing (``PYTHONHASHSEED``-proof, container-order
independent), the exhaustive-DFS A/B contract (identical bug set, at
most 0.6x the schedules), cross-carrier determinism of fingerprints
and pruning decisions (including a machine class compiled
mid-execution), replay fidelity of bug traces found under reduction, the
incremental enabled-set's equivalence to the reference seat walk, the
``consulted_decisions`` accounting fix for DPOR-forced choices, and the
config/CLI/report plumbing that surfaces it all.
"""

import os
import subprocess
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import pytest

from repro.bench import get
from repro.core.events import MachineId
from repro.errors import PSharpError
from repro.testing import (
    DEFAULT_STATE_CACHE_SIZE,
    REDUCTION_MODES,
    BugFindingRuntime,
    Campaign,
    DfsStrategy,
    IterativeDeepeningDfsStrategy,
    RandomStrategy,
    ReductionEngine,
    ReplayStrategy,
    ScheduleTrace,
    TestConfig,
    TestReport,
    ThreadedRuntime,
    normalize_reduction,
    replay,
)
from repro.testing import fleet
from repro.testing.portfolio import StrategySpec, make_strategy
from repro.testing.reduction import REASON_STATE, stable_update
from repro.testing.reporting import report_document
from repro.testing.trace import REDUCTION, SCHED

from .machines import EPing, EPong, Ping
from .reference_runtime import schedulable_walk
from .test_config import MidCampaignRacer

ROOT = Path(__file__).resolve().parents[1]

#: Exhaustive-DFS A/B fixtures: (benchmark, max_depth, max_steps).
#: Depths chosen so every arm terminates by exhaustion in well under a
#: second on the inline backend; TokenRing's steps are capped because
#: beyond ``max_depth`` the DFS falls back to first-enabled and the
#: ring otherwise spins to the default budget.
AB_CASES = [
    ("BoundedAsync", 8, 2_000),
    ("TwoPhaseCommit", 8, 2_000),
    ("TokenRing", 7, 200),
]


#: ``runtime_factory`` per carrier.
CARRIERS = {"inline": None, "threads": ThreadedRuntime}


def _exhaustive(name, depth, max_steps, mode, carrier="inline", **kwargs):
    """Run a to-exhaustion DFS campaign over a buggy registry variant."""
    variant = get(name).buggy
    return Campaign(
        TestConfig(
            variant.main,
            variant.payload,
            max_iterations=500_000,
            time_limit=240.0,
            max_steps=max_steps,
            stop_on_first_bug=False,
            runtime_factory=CARRIERS[carrier],
            monitors=tuple(variant.monitors),
            reduction=mode,
            **kwargs,
        ),
        strategy=DfsStrategy(max_depth=depth),
    ).run()


def _bug_set(report):
    return sorted(report.bug_classes)


def _untimed(report):
    """A report's document without its clock readings."""
    document = report_document(report)["report"]
    del document["elapsed"]
    del document["telemetry"]["iteration_us"], document["telemetry"]["rate"]
    return document


class Box:
    def __init__(self, value):
        self.value = value


class OtherBox(Box):
    pass


class Slotted:
    __slots__ = ("a", "b", "never_assigned")

    def __init__(self, a, b):
        self.a, self.b = a, b


@dataclass
class Holder:
    held: object


class Colour(Enum):
    RED = 1
    BLUE = 2


def _digest(obj):
    from hashlib import blake2b

    h = blake2b(digest_size=16)
    stable_update(h.update, obj)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Mode validation and config plumbing
# ---------------------------------------------------------------------------
class TestModeValidation:
    def test_normalize_accepts_every_mode(self):
        assert normalize_reduction(None) == "none"
        for mode in REDUCTION_MODES:
            assert normalize_reduction(mode) == mode

    def test_normalize_rejects_unknown(self):
        with pytest.raises(PSharpError, match="reduction must be one of"):
            normalize_reduction("por")

    def test_engine_refuses_none_mode(self):
        with pytest.raises(PSharpError, match="active"):
            ReductionEngine("none")

    def test_engine_refuses_empty_cache(self):
        with pytest.raises(PSharpError, match="state_cache_size"):
            ReductionEngine("dpor+state-cache", state_cache_size=0)

    def test_config_validates_and_round_trips(self):
        config = TestConfig(
            program=Ping, reduction="dpor+state-cache", state_cache_size=512
        )
        again = TestConfig.from_json(config.to_json())
        assert again.reduction == "dpor+state-cache"
        assert again.state_cache_size == 512

    def test_config_defaults(self):
        config = TestConfig(program=Ping)
        assert config.reduction == "none"
        assert config.state_cache_size == DEFAULT_STATE_CACHE_SIZE

    def test_config_rejects_bad_values(self):
        with pytest.raises(PSharpError):
            TestConfig(program=Ping, reduction="bogus")
        with pytest.raises(PSharpError):
            TestConfig(program=Ping, state_cache_size=0)


# ---------------------------------------------------------------------------
# Reduction is for the DFS family: refused everywhere else
# ---------------------------------------------------------------------------
RANDOMIZED = ["random", "fair-random", "pct", "delay-bounding"]


class TestRefusal:
    @pytest.mark.parametrize("strategy", RANDOMIZED)
    @pytest.mark.parametrize("mode", REDUCTION_MODES[1:])
    def test_refused_before_any_runtime_is_built(self, mode, strategy):
        built = []

        def factory(*args, **kwargs):
            built.append(kwargs)
            return BugFindingRuntime(*args, **kwargs)

        config = TestConfig(
            program=Ping, strategy=(strategy, {}), reduction=mode,
            max_iterations=3, runtime_factory=factory,
        )
        with pytest.raises(PSharpError) as info:
            Campaign(config).run()
        assert built == []
        message = str(info.value)
        assert "\n" not in message
        assert repr(mode) in message and repr(strategy) in message
        assert "reduction='none'" in message

    def test_a_strategy_object_is_refused_too(self):
        # The strategy that runs, not config.strategy (left at "random"):
        # why the check is the strategy's and not the config's.
        with pytest.raises(PSharpError, match="'dpor'.*'pct'"):
            Campaign(
                TestConfig(program=Ping, reduction="dpor", max_iterations=3),
                strategy=make_strategy(StrategySpec("pct")),
            ).run()

    def test_a_portfolio_is_refused_before_a_worker_forks(self, monkeypatch):
        def no_fork(*args, **kwargs):
            raise AssertionError("a worker was forked")

        monkeypatch.setattr(fleet.multiprocessing, "get_context", no_fork)
        config = TestConfig(
            program="Raft", portfolio_workers=2, reduction="dpor", seed=1,
            max_iterations=10,
        )
        with pytest.raises(PSharpError, match="'dpor'.*'random'"):
            Campaign(config).portfolio()


# ---------------------------------------------------------------------------
# Stable hashing
# ---------------------------------------------------------------------------
class TestStableHash:
    def test_dict_insertion_order_independent(self):
        a = {"x": 1, "y": [2, 3]}
        b = {"y": [2, 3], "x": 1}
        assert _digest(a) == _digest(b)

    def test_set_iteration_order_independent(self):
        assert _digest({"a", "bb", "ccc"}) == _digest({"ccc", "a", "bb"})

    def test_container_types_do_not_collide(self):
        digests = {_digest([1, 2]), _digest((1, 2)), _digest("12"), _digest(12)}
        assert len(digests) == 4

    def test_scalars_distinguished(self):
        assert _digest(True) != _digest(1)
        assert _digest(None) != _digest(False)
        assert _digest(1.0) != _digest(1)

    def test_default_repr_degrades_deterministically(self):
        class Opaque:
            pass

        assert _digest(Opaque()) == _digest(Opaque())

    def test_plain_objects_are_their_class_and_attributes(self):
        # A default repr embeds an address; the class name alone (what
        # this used to degrade to) merged Box(1) with Box(2).
        assert _digest(Box(1)) == _digest(Box(1))
        assert _digest(Box(1)) != _digest(Box(2))
        assert _digest([Box(1)]) != _digest([Box(2)])
        assert _digest(Box(Box(1))) != _digest(Box(Box(2)))
        assert _digest({"k": Box(1)}) != _digest({"k": Box(2)})
        assert _digest(Box(1)) != _digest(OtherBox(1))
        assert _digest(Slotted(1, 2)) != _digest(Slotted(1, 3))
        assert _digest(Slotted(1, 2)) == _digest(Slotted(1, 2))
        # A repr of its own that embeds an address after all.
        assert _digest(Holder(Box(1))) != _digest(Holder(Box(2)))
        assert _digest(Holder(Box(1))) == _digest(Holder(Box(1)))

    def test_attribute_order_does_not_matter(self):
        a, b = Box(1), Box(1)
        a.extra, a.more = 1, 2
        b.more, b.extra = 2, 1
        assert _digest(a) == _digest(b)

    def test_self_referential_object_terminates(self):
        def ring(value):
            box = Box(value)
            box.me = box
            return box

        assert _digest(ring(1)) == _digest(ring(1))
        assert _digest(ring(1)) != _digest(ring(2))

    def test_stable_repr_types_keep_their_repr(self):
        assert _digest(Colour.RED) == _digest(Colour.RED)
        assert _digest(Colour.RED) != _digest(Colour.BLUE)
        assert _digest(Holder(1)) != _digest(Holder(2))

    def test_event_is_its_name_and_payload(self):
        assert _digest(EPing(3)) == _digest(EPing(3))
        assert _digest(EPing(3)) != _digest(EPing(4))
        assert _digest(EPing()) != _digest(EPong())

    def test_hash_seed_independent(self):
        # The whole point: equal values digest equally in a process with a
        # different (randomized) string hash seed.
        code = (
            "from repro.testing.reduction import stable_update\n"
            "from hashlib import blake2b\n"
            "h = blake2b(digest_size=16)\n"
            "stable_update(h.update, {'x': {1, 2}, 'y': ('z', b'q')})\n"
            "print(h.hexdigest())\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        outs = set()
        for seed in ("0", "4242"):
            env["PYTHONHASHSEED"] = seed
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            outs.add(proc.stdout.strip())
        assert len(outs) == 1
        assert outs == {_digest({"x": {1, 2}, "y": ("z", b"q")})}


# ---------------------------------------------------------------------------
# Exhaustive-DFS A/B: same bugs, strictly fewer schedules
# ---------------------------------------------------------------------------
class TestExhaustiveAB:
    @pytest.mark.parametrize("name,depth,max_steps", AB_CASES)
    def test_dpor_same_bugs_fewer_schedules(self, name, depth, max_steps):
        base = _exhaustive(name, depth, max_steps, "none")
        dpor = _exhaustive(name, depth, max_steps, "dpor")
        assert base.exhausted and dpor.exhausted
        assert _bug_set(dpor) == _bug_set(base)
        # The acceptance gate: reduction must pay for itself.
        assert dpor.iterations <= 0.6 * base.iterations
        assert dpor.schedules_pruned > 0
        assert base.schedules_pruned == 0 and base.distinct_states == 0

    @pytest.mark.parametrize("name,depth,max_steps", AB_CASES)
    def test_state_cache_same_bugs_fewer_still(self, name, depth, max_steps):
        dpor = _exhaustive(name, depth, max_steps, "dpor")
        cached = _exhaustive(name, depth, max_steps, "dpor+state-cache")
        assert cached.exhausted
        assert _bug_set(cached) == _bug_set(dpor)
        assert cached.iterations < dpor.iterations
        assert cached.distinct_states > 0
        assert 0.0 < cached.redundancy_ratio < 1.0

    def test_clause_mode_same_bugs(self):
        # "+clauses" is another name for "dpor+state-cache": the same
        # campaign, down to every counter and bug trace.
        cached = _exhaustive("TwoPhaseCommit", 8, 2_000, "dpor+state-cache")
        clauses = _exhaustive(
            "TwoPhaseCommit", 8, 2_000, "dpor+state-cache+clauses"
        )
        assert clauses.exhausted
        assert _bug_set(clauses) == _bug_set(cached)
        assert _untimed(clauses) == _untimed(cached)

    def test_consulted_accounting_shrinks_under_dpor(self):
        # The satellite bugfix: DPOR-forced one-branch frames must not be
        # billed as consulted decisions, so the consulted count drops
        # along with the schedule count instead of drifting.
        base = _exhaustive("BoundedAsync", 8, 2_000, "none")
        dpor = _exhaustive("BoundedAsync", 8, 2_000, "dpor")
        assert 0 < dpor.telemetry.consulted < base.telemetry.consulted


# ---------------------------------------------------------------------------
# Cross-back-end determinism
# ---------------------------------------------------------------------------
class TestCrossBackendDeterminism:
    @pytest.mark.parametrize(
        "mode", ["dpor", "dpor+state-cache", "dpor+state-cache+clauses"]
    )
    def test_backends_agree_on_everything(self, mode):
        reports = {
            carrier: _exhaustive("TwoPhaseCommit", 7, 2_000, mode, carrier)
            for carrier in CARRIERS
        }
        inline = reports["inline"]
        assert inline.iterations > 0
        other = reports["threads"]
        assert other.effective_backend == "threads"
        assert other.iterations == inline.iterations
        assert other.distinct_states == inline.distinct_states
        assert other.schedules_pruned == inline.schedules_pruned
        assert _bug_set(other) == _bug_set(inline)
        assert [b.trace.fingerprint() for b in other.bugs] == [
            b.trace.fingerprint() for b in inline.bugs
        ]

    def test_a_class_compiled_mid_execution_matches_threads(self):
        # MidCampaignRacer creates children whose class sends from a
        # lambda: it compiles mid-execution, and fingerprints and pruning
        # decisions must be bit-identical to the threaded run.
        def campaign(factory):
            return Campaign(
                TestConfig(
                    MidCampaignRacer,
                    max_iterations=500_000,
                    time_limit=60.0,
                    max_steps=2_000,
                    stop_on_first_bug=False,
                    runtime_factory=factory,
                    reduction="dpor+state-cache",
                ),
                strategy=DfsStrategy(max_depth=8),
            ).run()

        inline = campaign(None)
        threads = campaign(ThreadedRuntime)
        assert inline.effective_backend == "inline"
        assert inline.exhausted and threads.exhausted
        assert inline.distinct_states > 0 and inline.schedules_pruned > 0
        assert inline.bugs
        assert inline.iterations == threads.iterations
        assert inline.distinct_states == threads.distinct_states
        assert inline.schedules_pruned == threads.schedules_pruned
        assert [b.trace.fingerprint() for b in inline.bugs] == [
            b.trace.fingerprint() for b in threads.bugs
        ]

    def test_state_fingerprint_stable_across_backends(self):
        variant = get("TwoPhaseCommit").buggy

        def initial_fingerprint(runtime_cls):
            strategy = DfsStrategy(max_depth=1)
            strategy.prepare_iteration()
            runtime = runtime_cls(
                strategy, max_steps=50, monitors=tuple(variant.monitors),
            )
            runtime.execute(variant.main, variant.payload)
            # Post-execution state: every machine settled, same digest
            # expected whichever backend drove the handlers.
            return runtime.state_fingerprint()

        prints = {initial_fingerprint(c) for c in (BugFindingRuntime, ThreadedRuntime)}
        assert len(prints) == 1


# ---------------------------------------------------------------------------
# Replay of bugs found under reduction
# ---------------------------------------------------------------------------
class TestReducedTraceReplay:
    def test_bug_trace_replays_on_every_backend(self):
        variant = get("TwoPhaseCommit").buggy
        report = Campaign(
            TestConfig(
                variant.main,
                variant.payload,
                max_iterations=500_000,
                time_limit=120.0,
                max_steps=2_000,
                stop_on_first_bug=True,
                workers="inline",
                monitors=tuple(variant.monitors),
                reduction="dpor+state-cache",
            ),
            strategy=DfsStrategy(max_depth=8),
        ).run()
        bug = report.first_bug
        assert bug is not None
        for factory in CARRIERS.values():
            result = replay(
                variant.main,
                bug.trace,
                payload=variant.payload,
                max_steps=2_000,
                runtime_factory=factory,
                monitors=tuple(variant.monitors),
            )
            assert result.status == "bug" and result.diverged is False
            assert result.bug.kind == bug.kind
            assert result.bug.message == bug.message
            assert result.trace == bug.trace


# ---------------------------------------------------------------------------
# Trace records and replay filtering
# ---------------------------------------------------------------------------
class TestReductionTraceRecords:
    def test_round_trip_and_rendering(self):
        trace = ScheduleTrace()
        trace.record(SCHED, 0)
        trace.record(REDUCTION, REASON_STATE)
        again = ScheduleTrace.from_json(trace.to_json())
        assert again == trace
        assert "cut1" in str(trace)

    def test_replay_strategy_skips_reduction_records(self):
        trace = ScheduleTrace()
        trace.record(SCHED, 0)
        trace.record(REDUCTION, REASON_STATE)
        strategy = ReplayStrategy(trace)
        strategy.prepare_iteration()
        enabled = [MachineId(1), MachineId(0)]
        assert strategy.pick_machine(enabled, None) == MachineId(0)
        assert not strategy.diverged
        # The cutoff is no decision: the trace holds nothing more to pick.
        assert strategy.pick_machine(enabled, None) == MachineId(1)
        assert strategy.diverged

    def test_pruned_executions_end_with_a_marker(self):
        # Drive the iteration loop by hand so pruned executions are
        # observable (the campaign loop only retains bug traces): a
        # state-cache hit must surface as status "pruned" with the
        # reduction record as the trace's final decision.
        variant = get("BoundedAsync").buggy
        strategy = DfsStrategy(max_depth=8)
        engine = ReductionEngine("dpor+state-cache")
        strategy.attach_reduction(engine)
        runtime = BugFindingRuntime(
            strategy, max_steps=2_000,
            monitors=tuple(variant.monitors), reduction=engine,
        )
        pruned = []
        for _ in range(200):
            if not strategy.prepare_iteration():
                break
            result = runtime.execute(variant.main, variant.payload)
            if result.status == "pruned":
                pruned.append(result)
        assert pruned, "exhaustive cached DFS never hit the state cache"
        for result in pruned:
            assert result.bug is None
            kind, value = result.trace.decisions[-1]
            assert kind == REDUCTION
            assert value == REASON_STATE


# ---------------------------------------------------------------------------
# Iterative deepening
# ---------------------------------------------------------------------------
class TestIterativeDeepening:
    @pytest.mark.parametrize("mode", ["dpor", "dpor+state-cache"])
    def test_finds_bug_across_deepening_resets(self, mode):
        variant = get("TwoPhaseCommit").buggy
        report = Campaign(
            TestConfig(
                variant.main,
                variant.payload,
                max_iterations=500_000,
                time_limit=120.0,
                max_steps=2_000,
                stop_on_first_bug=True,
                workers="inline",
                monitors=tuple(variant.monitors),
                reduction=mode,
            ),
            strategy=IterativeDeepeningDfsStrategy(initial_depth=2, max_depth=8),
        ).run()
        assert report.bug_found
        assert report.telemetry.consulted > 0


# ---------------------------------------------------------------------------
# Incremental enabled set == reference walk
# ---------------------------------------------------------------------------
class _CheckedRuntime(BugFindingRuntime):
    """Asserts that the incremental enabled set agrees with the
    O(#machines) reference walk: across every drain (the walk runs first
    — it is side-effect free, while the drain clears dirty bits) and
    after every scheduling point, drained or not."""

    checks = 0

    def _schedulable(self):
        expected = schedulable_walk(self)
        got = super()._schedulable()
        assert got == expected, (got, expected)
        _CheckedRuntime.checks += 1
        return got

    def _point(self, current, target=None, event=None, running=True):
        answer = super()._point(current, target, event, running)
        if current is not None:
            assert self._enabled == schedulable_walk(self)
            _CheckedRuntime.checks += 1
        return answer


class _CheckedThreadedRuntime(_CheckedRuntime, ThreadedRuntime):
    """The same checks on the threaded carrier."""


class TestEnabledSetEquivalence:
    @pytest.mark.parametrize(
        "runtime_cls", [_CheckedRuntime, _CheckedThreadedRuntime], ids=["inline", "threads"]
    )
    def test_agrees_with_walk(self, runtime_cls):
        variant = get("TwoPhaseCommit").buggy
        before = _CheckedRuntime.checks
        report = Campaign(
            TestConfig(
                variant.main,
                variant.payload,
                max_iterations=25,
                time_limit=60.0,
                max_steps=2_000,
                stop_on_first_bug=False,
                monitors=tuple(variant.monitors),
                runtime_factory=runtime_cls,
            ),
            strategy=RandomStrategy(seed=5),
        ).run()
        assert report.iterations == 25
        assert _CheckedRuntime.checks > before

    def test_agrees_under_fault_injection(self):
        # Message loss and crash-restart mutate inboxes outside the happy
        # path (dropped sends must NOT wake the target; a restarted
        # machine re-enters with its inbox intact), so run the checked
        # runtime over the fault-injected registry variants too.
        for name in ("RaftLossy", "TwoPhaseCommitCrash"):
            variant = get(name).buggy
            before = _CheckedRuntime.checks
            Campaign(
                TestConfig(
                    variant.main,
                    variant.payload,
                    max_iterations=15,
                    time_limit=120.0,
                    max_steps=2_000,
                    stop_on_first_bug=False,
                    workers="inline",
                    monitors=tuple(variant.monitors),
                    faults=variant.faults,
                    runtime_factory=_CheckedRuntime,
                ),
                strategy=RandomStrategy(seed=9),
            ).run()
            assert _CheckedRuntime.checks > before


# ---------------------------------------------------------------------------
# Report surface
# ---------------------------------------------------------------------------
class TestReportSurface:
    def test_summary_mentions_reduction_only_when_active(self):
        quiet = TestReport(strategy="dfs")
        assert "pruned" not in quiet.summary()
        loud = TestReport(
            strategy="dfs", iterations=60,
            distinct_states=483, branches_pruned=40,
        )
        text = loud.summary()
        assert "states=483" in text
        assert "pruned=40" in text
        assert "40% redundant" in text
        # The cache's cost counters show only when a cache ran.
        assert "fingerprints" not in text
        loud.fingerprints, loud.machine_digests = 521, 993
        assert "fingerprints=521 (993 digests)" in loud.summary()

    def test_redundancy_ratio(self):
        report = TestReport(
            strategy="dfs", iterations=60, branches_pruned=40
        )
        assert report.redundancy_ratio == pytest.approx(0.4)
        assert TestReport(strategy="dfs").redundancy_ratio == 0.0
        # A cut execution is one schedule: counted in ``iterations``
        # (it ran, up to the cut) and as pruned, never twice in the total.
        cut = TestReport(strategy="dfs", iterations=60, state_prunes=30)
        assert cut.schedules_pruned == 30
        assert cut.redundancy_ratio == pytest.approx(0.5)
        both = TestReport(
            strategy="dfs", iterations=60, branches_pruned=40, state_prunes=30
        )
        assert both.schedules_pruned == 70
        assert both.redundancy_ratio == pytest.approx(70 / 100)
        # 9,998 of 10,000 executions cut: nearly all of it was redundant.
        nearly = TestReport(strategy="dfs", iterations=10_000, state_prunes=9_998)
        assert nearly.redundancy_ratio == pytest.approx(0.9998)

    def test_a_cache_cut_execution_counts_once(self):
        # Exhaustive cached DFS on BoundedAsync d8 cuts 38 of its 40
        # executions.  Counting each cut in the total twice would read
        # 117 / 157 = 75% redundant; the schedule space is 40 executed
        # plus 79 DPOR branches never executed, 117 of them redundant.
        report = _exhaustive("BoundedAsync", 8, 2_000, "dpor+state-cache")
        assert report.exhausted
        assert (report.iterations, report.branches_pruned, report.state_prunes) == (
            40, 79, 38,
        )
        assert report.schedules_pruned == 117
        assert report.redundancy_ratio == pytest.approx(117 / 119)
        assert "98% redundant" in report.summary()

    def test_merge_folds_shard_counters(self):
        a = TestReport(
            strategy="a", iterations=10,
            distinct_states=100, branches_pruned=5, state_prunes=2,
            fingerprints=120, machine_digests=250,
        )
        b = TestReport(
            strategy="b", iterations=10,
            distinct_states=50, branches_pruned=2, state_prunes=1,
            fingerprints=60, machine_digests=110,
        )
        merged = TestReport.merged([a, b])
        detached = merged.detached()
        for report in (merged, detached):
            assert report.distinct_states == 150
            assert report.schedules_pruned == 10
            assert (report.branches_pruned, report.state_prunes) == (7, 3)
            assert report.fingerprints == 180
            assert report.machine_digests == 360

    def test_report_json_carries_reduction_stats(self):
        report = _exhaustive("BoundedAsync", 8, 2_000, "dpor+state-cache")
        payload = report_document(report)["report"]
        assert payload["distinct_states"] == report.distinct_states
        assert payload["branches_pruned"] == report.branches_pruned > 0
        assert payload["state_prunes"] == report.state_prunes > 0
        assert "schedules_pruned" not in payload
        assert payload["fingerprints"] == report.fingerprints > 0
        assert payload["machine_digests"] == report.machine_digests > 0
        # The ratio is derived, not carried: the decoded report has it.
        assert "redundancy_ratio" not in payload
        assert TestReport.decode(payload).redundancy_ratio == pytest.approx(
            report.redundancy_ratio
        )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def run_cli(*args, timeout=180):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=timeout,
    )


class TestCli:
    def test_reduction_flag_end_to_end(self):
        proc = run_cli(
            "test", "TwoPhaseCommit",
            "--strategy", "dfs,max_depth=8",
            "--reduction", "dpor+state-cache",
            "--max-iterations", "500000",
            "--max-steps", "2000",
            "--expect-bug",
        )
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert "states=" in proc.stdout
        assert "pruned=" in proc.stdout

    def test_refused_under_the_default_strategy(self):
        proc = run_cli("test", "Raft", "--reduction", "dpor+state-cache")
        assert proc.returncode == 2 and proc.stdout == ""
        (line,) = proc.stderr.strip().splitlines()
        assert line.startswith("error: reduction 'dpor+state-cache'")
        assert "'random'" in line and "reduction='none'" in line

    def test_refused_portfolio_forks_no_worker(self, tmp_path):
        events = tmp_path / "events.jsonl"
        proc = run_cli(
            "test", "Raft", "--portfolio", "2", "--reduction", "dpor",
            "--events", str(events),
        )
        assert proc.returncode == 2 and proc.stdout == ""
        (line,) = proc.stderr.strip().splitlines()
        assert line.startswith("error: reduction 'dpor'")
        assert not events.exists()

    def test_a_dfs_family_portfolio_runs(self):
        proc = run_cli(
            "test", "BoundedAsync",
            "--strategy", "dfs,max_depth=6",
            "--strategy", "iddfs,initial_depth=2,max_depth=6",
            "--reduction", "dpor+state-cache",
            "--max-iterations", "500000",
            "--max-steps", "2000",
            "--expect-bug",
        )
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert "pruned=" in proc.stdout

    def test_unknown_reduction_rejected(self):
        proc = run_cli(
            "test", "BoundedAsync", "--reduction", "magic",
            "--max-iterations", "5",
        )
        assert proc.returncode == 2
