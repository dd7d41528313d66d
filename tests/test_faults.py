"""Deterministic fault injection: config, recording, replay, fault-only bugs.

The invariants under test:

* a ``FaultConfig`` validates its probabilities and budget;
* every injected fault is a strategy decision recorded in the schedule
  trace, so faulty executions are bit-identical across the inline and
  threaded carriers and replay exactly;
* the fault-enabled registry variants (``RaftLossy``,
  ``TwoPhaseCommitCrash``) expose bugs that are reachable *only* with
  faults enabled;
* crash-restart respects ``persistent_fields`` vs volatile state;
* corrupt trace files surface as :class:`PSharpError`, not raw
  ``json``/``KeyError`` tracebacks.
"""

import json

import pytest

from repro import FaultConfig, PSharpError, ScheduleTrace
from repro.bench.registry import resolve_target
from repro.testing.config import Campaign, TestConfig
from repro.testing.faults import (
    FAULT_CRASH,
    FAULT_NONE,
    outcome_name,
)
from repro.testing.runtime import BugFindingRuntime
from repro.testing.threads import ThreadedRuntime
from repro.testing.strategies import (
    DfsStrategy,
    RandomStrategy,
    ReplayStrategy,
)
from repro.testing.trace import FAULT

from .machines import CrashCounter, CrashDriver, Ping

#: The runtime class per carrier.
BACKENDS = {"inline": BugFindingRuntime, "threads": ThreadedRuntime}
FAULT_TARGETS = ("RaftLossy", "TwoPhaseCommitCrash")


def fault_outcomes(trace):
    return [value for kind, value in trace.decisions if kind == FAULT]


class TestFaultConfig:
    def test_defaults_disabled(self):
        config = FaultConfig()
        assert not config.enabled
        assert config.message_weights == (0, 0, 0)
        assert config.crash_weight == 0

    @pytest.mark.parametrize("field", ["drop", "duplicate", "delay", "crash"])
    @pytest.mark.parametrize("bad", [-0.1, 1.5])
    def test_probability_range_validated(self, field, bad):
        with pytest.raises(ValueError):
            FaultConfig(**{field: bad})

    def test_budget_validated(self):
        with pytest.raises(ValueError):
            FaultConfig(max_faults=-1)

    def test_zero_budget_disables(self):
        assert not FaultConfig(drop=0.5, max_faults=0).enabled

    def test_crash_classes_normalized(self):
        config = FaultConfig(crash=0.1, crash_classes=[CrashCounter])
        assert config.crash_classes == (CrashCounter,)
        with pytest.raises(ValueError):
            FaultConfig(crash_classes=("not a class",))

    def test_outcome_names(self):
        assert outcome_name(FAULT_NONE) == "none"
        assert outcome_name(FAULT_CRASH) == "crash"

    def test_config_faults_validated(self):
        with pytest.raises(PSharpError):
            TestConfig(program=Ping, faults="drop everything")
        with pytest.raises(PSharpError):
            TestConfig(program=Ping, iteration_timeout=0)

    def test_resolved_faults_prefers_explicit(self):
        # Explicit all-zero config disables a fault-enabled variant.
        config = TestConfig(program="RaftLossy", faults=FaultConfig())
        assert config.resolved_faults() == FaultConfig()
        # None defers to the registry variant's default.
        assert TestConfig(program="RaftLossy").resolved_faults().drop > 0
        # Non-registry targets have no default.
        assert TestConfig(program=Ping).resolved_faults() is None


class TestStrategyFaultDecisions:
    def test_pick_fault_zero_weight_never_consumes(self):
        strategy = RandomStrategy(seed=1)
        strategy.prepare_iteration()
        assert strategy.pick_fault(0) is False

    def test_dfs_explores_fault_free_first(self):
        strategy = DfsStrategy()
        strategy.prepare_iteration()
        assert strategy.pick_fault(500) is False

    def test_replay_refires_recorded_outcomes_only(self):
        faults = FaultConfig(drop=0.6, max_faults=4)
        runtime = BugFindingRuntime(
            RandomStrategy(seed=5), max_steps=2000, faults=faults
        )
        result = runtime.execute(Ping)
        recorded = fault_outcomes(result.trace)
        assert recorded, "expected fault consultations to be recorded"
        replayer = ReplayStrategy(result.trace)
        replay_rt = BugFindingRuntime(replayer, max_steps=2000, faults=faults)
        replayed = replay_rt.execute(Ping)
        assert fault_outcomes(replayed.trace) == recorded
        # And the replay strategy itself never invents faults.
        assert replayer.pick_fault(1000) is False


class TestRecordingDeterminism:
    @pytest.mark.parametrize("target", FAULT_TARGETS)
    def test_backends_record_identical_faulty_traces(self, target):
        variant = resolve_target(target)
        fingerprints = set()
        for runtime_cls in BACKENDS.values():
            runtime = runtime_cls(
                RandomStrategy(seed=7),
                max_steps=5000,
                monitors=variant.monitors,
                faults=variant.faults,
            )
            result = runtime.execute(variant.main, variant.payload)
            fingerprints.add((result.trace.fingerprint(), result.status))
        assert len(fingerprints) == 1

    @pytest.mark.parametrize("target", FAULT_TARGETS)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_faulty_trace_replays_bit_identically(self, target, backend):
        variant = resolve_target(target)
        runtime = BugFindingRuntime(
            RandomStrategy(seed=7),
            max_steps=5000,
            monitors=variant.monitors,
            faults=variant.faults,
        )
        recorded = runtime.execute(variant.main, variant.payload)
        replay_rt = BACKENDS[backend](
            ReplayStrategy(recorded.trace),
            max_steps=5000,
            monitors=variant.monitors,
            faults=variant.faults,
        )
        replayed = replay_rt.execute(variant.main, variant.payload)
        assert replayed.trace.fingerprint() == recorded.trace.fingerprint()
        assert replayed.status == recorded.status
        assert replayed.diverged is False

    def test_disabled_faults_record_nothing(self):
        runtime = BugFindingRuntime(
            RandomStrategy(seed=3),
            max_steps=2000,
            faults=FaultConfig(drop=0.9, max_faults=0),
        )
        result = runtime.execute(Ping)
        assert fault_outcomes(result.trace) == []

    def test_budget_caps_injections(self):
        faults = FaultConfig(drop=1.0, max_faults=2)
        runtime = BugFindingRuntime(
            RandomStrategy(seed=0), max_steps=2000, faults=faults
        )
        result = runtime.execute(Ping)
        injected = [v for v in fault_outcomes(result.trace) if v != FAULT_NONE]
        assert len(injected) <= 2
        assert result.faults_injected == len(injected) == sum(result.fault_kinds)


class TestFaultOnlyBugs:
    def test_raft_lossy_liveness_bug_needs_drops(self):
        config = TestConfig(
            program="RaftLossy",
            strategy="random,seed=3",
            max_iterations=200,
            time_limit=60,
        )
        report = Campaign(config).run()
        assert report.bug_found
        assert report.first_bug.kind == "liveness"
        clean = Campaign(
            config.with_overrides(faults=FaultConfig(), max_iterations=300)
        ).run()
        assert not clean.bug_found, str(clean.first_bug)

    def test_two_phase_commit_bug_needs_crashes(self):
        config = TestConfig(
            program="TwoPhaseCommitCrash",
            strategy="random,seed=5",
            max_iterations=500,
            time_limit=60,
        )
        report = Campaign(config).run()
        assert report.bug_found
        clean = Campaign(
            config.with_overrides(faults=FaultConfig(), max_iterations=300)
        ).run()
        assert not clean.bug_found, str(clean.first_bug)

    def test_presumed_abort_recovery_is_correct_under_crashes(self):
        variant = resolve_target("TwoPhaseCommitCrash")
        config = TestConfig(
            program="repro.bench.fault_variants:RecoverableCoordinator",
            monitors=variant.monitors,
            faults=variant.faults,
            strategy="random,seed=9",
            max_iterations=400,
            time_limit=60,
        )
        report = Campaign(config).run()
        assert not report.bug_found, str(report.first_bug)

    def test_fault_bug_replays_via_campaign(self):
        config = TestConfig(
            program="TwoPhaseCommitCrash",
            strategy="random,seed=5",
            max_iterations=500,
            time_limit=60,
        )
        campaign = Campaign(config)
        report = campaign.run()
        assert report.bug_found
        result = campaign.replay()
        assert result is not None and result.buggy
        assert result.diverged is False


class TestCrashRestartSemantics:
    def _run(self, seed, persistent):
        faults = FaultConfig(
            crash=0.5,
            max_faults=1,
            persistent_state=persistent,
            crash_classes=(CrashCounter,),
        )
        runtime = BugFindingRuntime(
            RandomStrategy(seed=seed), max_steps=2000, faults=faults
        )
        result = runtime.execute(CrashDriver)
        counter = next(
            m for m in runtime.machines if isinstance(m, CrashCounter)
        )
        crashed = FAULT_CRASH in fault_outcomes(result.trace)
        return counter, crashed

    def test_persistent_fields_survive_crash(self):
        for seed in range(20):
            counter, crashed = self._run(seed, persistent=True)
            if crashed and counter.persisted > counter.volatile:
                # The durable counter kept pre-crash bumps; the volatile
                # one restarted from zero.
                assert counter.persisted == CrashDriver.bumps
                return
        pytest.fail("no schedule crashed the counter mid-count in 20 seeds")

    def test_volatile_state_resets_on_crash(self):
        for seed in range(20):
            counter, crashed = self._run(seed, persistent=False)
            assert counter.persisted == counter.volatile
            if crashed and counter.volatile < CrashDriver.bumps:
                return
        pytest.fail("no schedule crashed the counter mid-count in 20 seeds")


class TestChessRejectsFaults:
    def test_chess_runtime_refuses_fault_injection(self):
        from repro.chess import ChessRuntime

        with pytest.raises(ValueError, match="fault"):
            ChessRuntime(RandomStrategy(seed=0), faults=FaultConfig(drop=0.1))


class TestCorruptTraces:
    def test_unreadable_file_raises_psharp_error(self, tmp_path):
        with pytest.raises(PSharpError, match="cannot read"):
            ScheduleTrace.load(tmp_path / "missing.trace")

    @pytest.mark.parametrize(
        "content",
        [
            "[not json",
            json.dumps(42),
            json.dumps([["bogus-kind", 1]]),
            json.dumps([["sched"]]),
            json.dumps([["sched", "not-an-int"]]),
        ],
    )
    def test_corrupt_content_raises_psharp_error(self, tmp_path, content):
        path = tmp_path / "bad.trace"
        path.write_text(content)
        with pytest.raises(PSharpError, match="corrupt schedule trace"):
            ScheduleTrace.load(path)
