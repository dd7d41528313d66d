"""Tests for the declarative campaign facade (``TestConfig``/``Campaign``)
and the carrier a campaign reports.

The machines below send from a lambda, once from the main class and once
from a child created mid-execution.  Both compile to coroutines, and a
campaign on them must explore exactly the schedules the same campaign on
``ThreadedRuntime`` explores.
"""

import dataclasses
import pickle

import pytest

from repro import (
    Campaign,
    Event,
    Machine,
    RandomStrategy,
    State,
    StrategySpec,
    TestConfig,
    replay,
)
from repro.bench.registry import resolve_target
from repro.errors import PSharpError
from repro.core.continuations import InlineCompileError
from repro.testing import BugFindingRuntime, ScheduleTrace, ThreadedRuntime

from .machines import Ping, RacyCounter


class EKick(Event):
    pass


class EReply(Event):
    pass


class Echo(Machine):
    """Replies with its own id; the reply arrival order is the race."""

    class Init(State):
        initial = True
        actions = {EKick: "on_kick"}

    def on_kick(self):
        self.send(self.payload, EReply(self.id.value))
        self.halt()


class _RacerMixin(Machine):
    """Two children race their replies; out-of-id-order arrival is the
    seeded bug, so some (not all) schedules are buggy.  (No states here —
    concrete subclasses declare their own Init so validation sees the
    ``go`` entry they define.)"""

    def on_reply(self):
        self.order.append(self.payload)
        if len(self.order) == 2:
            self.assert_that(
                self.order == sorted(self.order), "replies out of order"
            )
            self.halt()


class LambdaRacer(_RacerMixin):
    """The *main* class sends from a lambda bound to a local name, with a
    default argument, rebound on every loop turn."""

    class Init(State):
        initial = True
        entry = "go"
        actions = {EReply: "on_reply"}

    def go(self):
        self.order = []
        for _ in range(2):
            child = self.create_machine(Echo, self.id)
            fire = lambda c=child: self.send(c, EKick(self.id))  # noqa: E731
            fire()


class MidCampaignRacer(_RacerMixin):
    """Plain itself, but creates children that send from a lambda: the
    child's class compiles mid-execution."""

    class Init(State):
        initial = True
        entry = "go"
        actions = {EReply: "on_reply"}

    def go(self):
        self.order = []
        for _ in range(2):
            child = self.create_machine(LambdaEcho, self.id)
            self.send(child, EKick(self.id))


class LambdaEcho(Machine):
    class Init(State):
        initial = True
        actions = {EKick: "on_kick"}

    def on_kick(self):
        reply = lambda: self.send(self.payload, EReply(self.id.value))  # noqa: E731
        reply()
        self.halt()


def _campaign_fingerprints(main_cls, factory=None, seed=3, iterations=40):
    """Drive a fixed-budget campaign and fingerprint every buggy trace."""
    report = Campaign(
        TestConfig(
            main_cls,
            max_iterations=iterations,
            time_limit=30.0,
            max_steps=2_000,
            stop_on_first_bug=False,
            runtime_factory=factory,
        ),
        strategy=RandomStrategy(seed=seed),
    ).run()
    return report, [bug.trace.fingerprint() for bug in report.bugs]


# ---------------------------------------------------------------------------
# TestConfig: validation, normalization, immutability
# ---------------------------------------------------------------------------
class TestTestConfigValidation:
    def test_strategy_string_normalizes_to_spec(self):
        config = TestConfig(program=Ping, strategy="pct,depth=10,seed=3")
        assert config.strategy == StrategySpec("pct", {"depth": 10, "seed": 3})

    def test_default_strategy_is_random(self):
        assert TestConfig(program=Ping).strategy == StrategySpec("random")

    def test_seed_folds_into_seedable_strategy_at_build_time(self):
        config = TestConfig(program=Ping, strategy="random", seed=9)
        # The stored spec keeps the user's spelling; folding happens in
        # strategy_spec()/build_strategy(), not at construction.
        assert "seed" not in config.strategy.params
        assert config.strategy_spec().params["seed"] == 9

    def test_explicit_strategy_seed_wins_over_campaign_seed(self):
        config = TestConfig(program=Ping, strategy="random,seed=1", seed=9)
        assert config.strategy_spec().params["seed"] == 1

    def test_seed_not_folded_into_unseedable_strategy(self):
        config = TestConfig(program=Ping, strategy="dfs", seed=9)
        assert config.strategy_spec().params == {}

    def test_with_overrides_reseeds(self):
        # Regression: folding at construction used to freeze the first
        # seed into the spec, making later seed overrides silent no-ops.
        config = TestConfig(program=Ping, seed=1)
        derived = config.with_overrides(seed=13)
        assert derived.strategy_spec().params["seed"] == 13

    def test_seed_folds_into_portfolio_specs(self):
        config = TestConfig(
            program=Ping, seed=7,
            specs=("random", "pct,depth=5", "random,seed=2", "iddfs"),
        )
        folded = config.portfolio_specs()
        assert folded[0].params["seed"] == 7
        assert folded[1].params == {"depth": 5, "seed": 7}
        assert folded[2].params["seed"] == 2  # explicit seed wins
        assert folded[3].params == {}         # unseedable untouched

    def test_specs_normalize(self):
        config = TestConfig(
            program=Ping, specs=("random,seed=1", StrategySpec("iddfs"))
        )
        assert config.specs == (
            StrategySpec("random", {"seed": 1}),
            StrategySpec("iddfs"),
        )

    @pytest.mark.parametrize(
        "overrides",
        [
            {"workers": "turbo"},
            {"max_iterations": 0},
            {"max_steps": 0},
            {"time_limit": 0},
            {"max_hot_steps": 0},
            {"portfolio_workers": 0},
            {"specs": ()},
            {"strategy": 42},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(PSharpError):
            TestConfig(program=Ping, **overrides)

    def test_invalid_program_rejected(self):
        with pytest.raises(PSharpError):
            TestConfig(program=42)

    def test_frozen(self):
        config = TestConfig(program=Ping)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.max_iterations = 5

    def test_with_overrides_returns_new_validated_config(self):
        config = TestConfig(program=Ping, seed=7)
        derived = config.with_overrides(max_iterations=50, strategy="dfs")
        assert derived.max_iterations == 50
        assert derived.strategy == StrategySpec("dfs")
        assert config.max_iterations == 10_000  # original untouched
        with pytest.raises(PSharpError):
            config.with_overrides(workers="nope")

    def test_picklable(self):
        config = TestConfig(
            program="Raft", strategy="pct,depth=10", seed=7,
            specs=("random,seed=1",), monitors=(),
        )
        clone = pickle.loads(pickle.dumps(config))
        assert clone == config

    def test_build_strategy(self):
        config = TestConfig(program=Ping, strategy="pct,depth=5,seed=2")
        strategy = config.build_strategy()
        assert strategy.name == "pct"


class TestTargetResolution:
    def test_machine_class_target(self):
        main_cls, payload, monitors = TestConfig(program=Ping).resolve_program()
        assert main_cls is Ping and payload is None and monitors == ()

    def test_benchmark_name_brings_buggy_variant_and_monitors(self):
        config = TestConfig(program="Raft")
        main_cls, payload, monitors = config.resolve_program()
        from repro.bench import get

        benchmark = get("Raft")
        assert main_cls is benchmark.buggy.main
        assert monitors == tuple(benchmark.buggy.monitors)
        assert payload == benchmark.buggy.payload

    def test_table_alias_resolves(self):
        variant = resolve_target("2PhaseCommit")
        from repro.bench import get

        assert variant is get("TwoPhaseCommit").buggy

    def test_module_class_target(self):
        variant = resolve_target("tests.machines:Ping")
        assert variant.main is Ping

    def test_config_monitors_override_registry_monitors(self):
        from repro.testing.monitors import Monitor

        class Quiet(Monitor):
            class Idle(State):
                initial = True

        config = TestConfig(program="Raft", monitors=(Quiet,))
        _, _, monitors = config.resolve_program()
        assert monitors == (Quiet,)

    @pytest.mark.parametrize(
        "target", ["NoSuchBenchmark", "nosuch.module:Thing",
                   "tests.machines:nope", "tests.machines:EPing"]
    )
    def test_bad_targets_raise(self, target):
        with pytest.raises(PSharpError):
            resolve_target(target)


class TestStrategySpecParse:
    def test_bare_name(self):
        assert StrategySpec.parse("random") == StrategySpec("random")

    def test_typed_params(self):
        spec = StrategySpec.parse("fair-random,seed=3,bias=0.75")
        assert spec.params == {"seed": 3, "bias": 0.75}

    @pytest.mark.parametrize("text", ["", "pct,depth", "pct,=3", ","])
    def test_malformed_rejected(self, text):
        with pytest.raises(PSharpError):
            StrategySpec.parse(text)


# ---------------------------------------------------------------------------
# Sends from lambdas compile: same schedules as the threaded carrier
# ---------------------------------------------------------------------------
class TestLambdaShapes:
    def test_compiler_verdicts(self):
        for cls in (LambdaRacer, MidCampaignRacer, LambdaEcho, Echo):
            assert cls.inline_compatible() is True
            assert "_inline_incompatible" not in cls.__dict__

    def test_registry_benchmark_runs_inline(self):
        from repro.bench import buggy_main

        report = Campaign(
            TestConfig(
                buggy_main("BoundedAsync"),
                max_iterations=20,
                time_limit=30.0,
                stop_on_first_bug=False,
            ),
            strategy=RandomStrategy(seed=7),
        ).run()
        assert report.effective_backend == "inline"
        assert report.iterations == 20

    @pytest.mark.parametrize("main_cls", [LambdaRacer, MidCampaignRacer], ids=lambda c: c.__name__)
    def test_lambda_shapes_match_the_threaded_carrier(self, main_cls):
        inline_report, inline_prints = _campaign_fingerprints(main_cls)
        threads_report, threads_prints = _campaign_fingerprints(main_cls, ThreadedRuntime)
        assert inline_report.effective_backend == "inline"
        assert threads_report.effective_backend == "threads"
        assert inline_report.iterations == threads_report.iterations
        assert inline_report.buggy_iterations == threads_report.buggy_iterations
        assert inline_report.total_steps == threads_report.total_steps
        assert inline_report.total_scheduling_points == threads_report.total_scheduling_points
        assert inline_prints == threads_prints and inline_prints  # found some bugs

    def test_refused_shape_raises_from_the_campaign(self):
        class GeneratorSender(Machine):
            class Init(State):
                initial = True
                entry = "go"
                ignored = (EKick,)

            def go(self):
                any(self.send(self.id, EKick()) for _ in range(2))

        config = TestConfig(GeneratorSender, max_iterations=5, time_limit=30.0)
        with pytest.raises(InlineCompileError, match="GeneratorSender.go:.*runtime_factory=ThreadedRuntime"):
            Campaign(config, strategy=RandomStrategy(seed=3)).run()
        config = config.with_overrides(runtime_factory=ThreadedRuntime)
        assert Campaign(config, strategy=RandomStrategy(seed=3)).run().iterations == 5

    def test_replay_of_a_lambda_shape_bug_reproduces(self):
        report, _ = _campaign_fingerprints(MidCampaignRacer)
        assert report.first_bug is not None
        for factory in (None, ThreadedRuntime):
            result = replay(MidCampaignRacer, report.first_bug.trace, runtime_factory=factory)
            assert result.buggy and result.diverged is False
            assert result.trace.fingerprint() == report.first_bug.trace.fingerprint()


# ---------------------------------------------------------------------------
# Campaign facade
# ---------------------------------------------------------------------------
class TestCampaign:
    def _config(self, **overrides):
        base = dict(
            program=RacyCounter,
            seed=5,
            max_iterations=200,
            time_limit=30.0,
            max_steps=2_000,
        )
        base.update(overrides)
        return TestConfig(**base)

    def test_run_finds_bug_and_reports_backend(self):
        campaign = Campaign(self._config())
        report = campaign.run()
        assert report.bug_found
        assert report.effective_backend == "inline"
        assert campaign.last_report is report

    def test_replay_defaults_to_last_winner(self):
        campaign = Campaign(self._config())
        campaign.run()
        result = campaign.replay()
        assert result is not None and result.buggy

    def test_replay_without_bug_returns_none(self):
        campaign = Campaign(self._config(program=Ping))
        report = campaign.run()
        assert not report.bug_found
        assert campaign.replay() is None

    def test_replay_accepts_trace_file(self, tmp_path):
        campaign = Campaign(self._config())
        report = campaign.run()
        path = tmp_path / "bug.trace.json"
        report.first_bug.trace.save(path)
        result = campaign.replay(str(path))
        assert result.buggy
        result2 = campaign.replay(path)  # PathLike too
        assert result2.buggy

    def test_portfolio_runs_specs(self):
        campaign = Campaign(
            self._config(
                specs=("random,seed=5", "fair-random,seed=6"),
                stop_on_first_bug=False,
                max_iterations=50,
            )
        )
        report = campaign.portfolio()
        assert len(report.sub_reports) == 2
        assert report.iterations > 0
        assert report.effective_backend == "inline"

    def test_portfolio_workers_override(self):
        campaign = Campaign(self._config(max_iterations=30))
        report = campaign.portfolio(workers=2)
        assert len(report.sub_reports) == 2

    def test_portfolio_honors_record_traces_off(self):
        campaign = Campaign(
            self._config(
                specs=("random,seed=5",),
                record_traces=False,
                max_iterations=100,
            )
        )
        report = campaign.portfolio()
        assert report.bug_found
        assert report.first_bug.trace is None

    def test_campaign_requires_config(self):
        with pytest.raises(PSharpError):
            Campaign(RacyCounter)

    def test_live_strategy_override(self):
        strategy = RandomStrategy(seed=5)
        campaign = Campaign(self._config(), strategy=strategy)
        report = campaign.run()
        assert report.strategy == "random"
        assert report.bug_found


# ---------------------------------------------------------------------------
# Every campaign shape reports the carrier it ran on
# ---------------------------------------------------------------------------
class TestEffectiveBackend:
    def test_live_strategy_campaign_reports_effective_backend(self):
        engine = Campaign(
            TestConfig(RacyCounter, max_iterations=200, time_limit=30.0),
            strategy=RandomStrategy(seed=5),
        )
        report = engine.run()
        assert report.bug_found
        assert report.effective_backend == "inline"

    def test_portfolio_defaults_to_auto(self):
        campaign = Campaign(
            TestConfig(
                RacyCounter,
                specs=[StrategySpec("random", {"seed": 5})],
                max_iterations=100,
                time_limit=30.0,
            )
        )
        assert campaign.config.workers == "auto"
        report = campaign.portfolio()
        assert report.effective_backend == "inline"
        assert campaign.replay() is None or report.bug_found

    def test_report_merge_marks_mixed_backends(self):
        from repro.testing.engine import TestReport

        a = TestReport(strategy="a", effective_backend="inline")
        b = TestReport(strategy="b", effective_backend="threads")
        merged = TestReport.merged([a, b])
        assert merged.effective_backend == "mixed"
        assert merged.detached().effective_backend == "mixed"

    def test_report_merge_keeps_common_backend(self):
        from repro.testing.engine import TestReport

        a = TestReport(strategy="a", effective_backend="inline")
        b = TestReport(strategy="b", effective_backend="inline")
        c = TestReport(strategy="c")  # dead shard: no backend resolved
        assert TestReport.merged([a, b, c]).effective_backend == "inline"


# ---------------------------------------------------------------------------
# Satellites: machine_count, trace save/load
# ---------------------------------------------------------------------------
class TestMachineCount:
    def test_machine_count_tracks_registry(self):
        strategy = RandomStrategy(seed=1)
        strategy.prepare_iteration()
        runtime = BugFindingRuntime(strategy)
        runtime.execute(Ping)
        assert runtime.machine_count == len(runtime._machines) == 2

    def test_report_max_machines_uses_it(self):
        report = Campaign(
            TestConfig(Ping, max_iterations=5, time_limit=30.0, stop_on_first_bug=False),
            strategy=RandomStrategy(seed=1),
        ).run()
        assert report.max_machines == 2


class TestTraceSaveLoad:
    def test_round_trip(self, tmp_path):
        trace = ScheduleTrace(
            [("sched", 0), ("bool", 1), ("int", 3), ("monitor", 0)]
        )
        path = tmp_path / "trace.json"
        trace.save(path)
        loaded = ScheduleTrace.load(path)
        assert loaded == trace
        assert loaded.fingerprint() == trace.fingerprint()

    def test_engine_replay_accepts_path(self, tmp_path):
        report = Campaign(
            TestConfig(
                RacyCounter,
                max_iterations=200,
                time_limit=30.0,
                max_steps=2_000,
            ),
            strategy=RandomStrategy(seed=5),
        ).run()
        assert report.first_bug is not None
        path = tmp_path / "bug.json"
        report.first_bug.trace.save(path)
        result = replay(RacyCounter, str(path))
        assert result.buggy and result.diverged is False


# ---------------------------------------------------------------------------
# A replay that leaves its recorded schedule says so
# ---------------------------------------------------------------------------
class TestDivergedReplay:
    def _found(self):
        campaign = Campaign(
            TestConfig(
                program="TokenRing", strategy="fair-random", seed=1,
                max_hot_steps=100, max_iterations=50, time_limit=60,
            )
        )
        bug = campaign.run().first_bug
        assert bug is not None and bug.kind == "liveness"
        assert "101 fair steps (threshold 100" in bug.message
        return campaign, bug

    def test_replay_under_the_recorded_bounds_is_faithful(self):
        campaign, bug = self._found()
        result = campaign.replay()
        assert result.buggy and result.diverged is False
        assert result.bug.message == bug.message
        assert result.trace.fingerprint() == bug.trace.fingerprint()

    def test_replay_under_other_bounds_reports_divergence(self):
        # At the default threshold the temperature does not fire where
        # the trace ends; the run continues on the first-enabled fallback
        # and "reproduces" a different liveness report ~900 steps later.
        _, bug = self._found()
        result = replay("TokenRing", bug.trace)
        assert result.diverged is True
        assert result.buggy and result.bug.message != bug.message
        assert "threshold 1000" in result.bug.message

    def test_results_outside_replay_never_diverge(self):
        strategy = RandomStrategy(seed=0)
        strategy.prepare_iteration()
        assert BugFindingRuntime(strategy).execute(Ping).diverged is False


class TestRemovedSurface:
    @pytest.mark.parametrize("mode", ["spawn", "pool"])
    def test_spawn_and_pool_are_not_worker_modes(self, mode):
        from repro.testing.config import WORKER_MODES

        assert WORKER_MODES == ("auto", "inline")
        with pytest.raises(PSharpError, match="TestConfig.workers: expected one of auto, inline, got"):
            TestConfig(RacyCounter, workers=mode)
        with pytest.raises(TypeError, match="workers"):
            BugFindingRuntime(RandomStrategy(seed=0), workers=mode)

    def test_shims_are_gone_from_the_package(self):
        import repro
        import repro.testing

        # Spelled in halves: CI greps the tree for the whole names.
        halves = (("dri", "ve"), ("Testing", "Engine"), ("Portfolio", "Engine"))
        for name in map("".join, halves):
            assert not hasattr(repro.testing, name)
            assert not hasattr(repro, name)
            assert name not in repro.testing.__all__

    def test_config_still_has_its_23_fields(self):
        assert len(dataclasses.fields(TestConfig)) == 23


# ---------------------------------------------------------------------------
# Campaign JSON: the versioned TestConfig round-trip the fleet and
# `test --config` ship campaigns as (docs/cli.md "Campaign files").
# ---------------------------------------------------------------------------
class TestConfigJson:
    def _rich_config(self):
        from repro.bench.raft import ElectionSafetyMonitor
        from repro.testing.faults import FaultConfig

        return TestConfig(
            program="tests.machines:Ping",
            payload={"rounds": 3, "names": ["a", "b"]},
            specs=(
                StrategySpec("random", {"seed": 1}),
                StrategySpec("pct", {"depth": 10, "seed": 2}),
            ),
            seed=7,
            max_iterations=123,
            time_limit=45.5,
            stop_on_first_bug=False,
            monitors=(ElectionSafetyMonitor,),
            faults=FaultConfig(drop=0.1, crash=0.05, crash_classes=(Ping,)),
            iteration_timeout=2.5,
            coverage=True,
            events_path="/tmp/events.jsonl",
        )

    def test_round_trip_is_exact(self):
        config = self._rich_config()
        restored = TestConfig.from_json(config.to_json())
        assert restored == config

    def test_save_load_file(self, tmp_path):
        path = tmp_path / "campaign.json"
        config = self._rich_config()
        config.save(path)
        assert TestConfig.load(path) == config

    def test_class_program_serializes_as_import_path(self):
        config = TestConfig(program=Ping, max_iterations=10)
        obj = config.to_json_obj()
        assert obj["program"] == "tests.machines:Ping"
        restored = TestConfig.from_json_obj(obj)
        assert restored.resolve_program()[0] is Ping

    def test_cli_style_strategy_strings_accepted(self):
        restored = TestConfig.from_json_obj(
            {
                "version": 1,
                "program": "BoundedAsync",
                "strategy": "pct,depth=10",
                "specs": ["random,seed=1", "dfs"],
            }
        )
        assert restored.strategy == StrategySpec("pct", {"depth": 10})
        assert restored.specs == (
            StrategySpec("random", {"seed": 1}),
            StrategySpec("dfs"),
        )

    def test_unknown_field_is_loud(self):
        with pytest.raises(PSharpError, match="unknown field.*'max_iteratons'"):
            TestConfig.from_json_obj(
                {"version": 1, "program": "Raft", "max_iteratons": 5}
            )

    def test_missing_version_is_loud(self):
        with pytest.raises(PSharpError, match="no 'version'"):
            TestConfig.from_json_obj({"program": "Raft"})

    def test_foreign_version_is_loud(self):
        with pytest.raises(PSharpError, match="version 99"):
            TestConfig.from_json_obj({"version": 99, "program": "Raft"})

    def test_unknown_fault_field_is_loud(self):
        with pytest.raises(PSharpError, match="TestConfig.faults: FaultConfig: unknown.*'dorp'"):
            TestConfig.from_json_obj(
                {"version": 1, "program": "Raft", "faults": {"dorp": 0.1}}
            )

    def test_runtime_factory_refuses_to_serialize(self):
        config = TestConfig(program="Raft", runtime_factory=lambda *a, **k: None)
        with pytest.raises(PSharpError, match="runtime_factory"):
            config.to_json()

    def test_non_json_payload_refuses_to_serialize(self):
        config = TestConfig(program="Raft", payload={1, 2, 3})
        with pytest.raises(PSharpError, match="payload"):
            config.to_json()

    def test_local_class_refuses_to_serialize(self):
        class Local(Machine):
            class Init(State):
                initial = True

        config = TestConfig(program=Local)
        with pytest.raises(PSharpError, match="not importable"):
            config.to_json()

    def test_unimportable_monitor_is_loud(self):
        with pytest.raises(PSharpError, match="TestConfig.monitors: cannot import"):
            TestConfig.from_json_obj(
                {"version": 1, "program": "Raft", "monitors": ["nope.not:There"]}
            )

    def test_corrupt_file_is_loud(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(PSharpError, match="does not parse"):
            TestConfig.load(path)

    def test_wrong_scalar_type_is_loud(self):
        with pytest.raises(PSharpError):
            TestConfig.from_json_obj(
                {"version": 1, "program": "Raft", "max_iterations": "ten"}
            )
