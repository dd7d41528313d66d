"""Subprocess tests for the ``python -m repro`` command-line tester.

These run the real module entry point end to end (argument parsing,
target resolution, campaign execution, trace files, exit codes) — the
same invocations the CI smoke lane makes.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*args, timeout=120):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=timeout,
    )


class TestBenchList:
    def test_lists_registry(self):
        proc = run_cli("bench", "--list")
        assert proc.returncode == 0, proc.stderr
        for name in ("Raft", "TwoPhaseCommit", "BoundedAsync", "TokenRing"):
            assert name in proc.stdout
        assert "ElectionSafetyMonitor" in proc.stdout


class TestTestCommand:
    def test_benchmark_campaign_and_replay_roundtrip(self, tmp_path):
        trace = tmp_path / "bounded.trace.json"
        proc = run_cli(
            "test", "BoundedAsync", "--max-iterations", "50", "--seed", "7",
            "--expect-bug", "--save-trace", str(trace),
        )
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert "backend: inline" in proc.stdout
        assert "bug:" in proc.stdout
        assert trace.exists()

        replayed = run_cli(
            "replay", "BoundedAsync", "--trace", str(trace), "--expect-bug"
        )
        assert replayed.returncode == 0, replayed.stderr + replayed.stdout
        assert "reproduced:" in replayed.stdout

    def test_liveness_roundtrip_and_diverged_replay(self, tmp_path):
        faithful = tmp_path / "ring.trace.json"
        proc = run_cli(
            "test", "TokenRing", "--strategy", "fair-random", "--seed", "1",
            "--expect-bug", "--save-trace", str(faithful),
        )
        assert proc.returncode == 0, proc.stderr + proc.stdout
        replayed = run_cli(
            "replay", "TokenRing", "--trace", str(faithful), "--expect-bug"
        )
        assert replayed.returncode == 0, replayed.stderr + replayed.stdout
        assert "reproduced:" in replayed.stdout
        assert "diverged" not in replayed.stdout
        # The right trace against the wrong program leaves the schedule.
        wrong = run_cli(
            "replay", "ProcessScheduler", "--trace", str(faithful), "--expect-bug"
        )
        assert wrong.returncode == 1
        assert "diverged: yes" in wrong.stdout

        # Recorded under --max-hot-steps 100, replayed at the default
        # threshold: a different liveness report, flagged and failed.
        short = tmp_path / "ring100.trace.json"
        proc = run_cli(
            "test", "TokenRing", "--strategy", "fair-random", "--seed", "1",
            "--max-hot-steps", "100", "--save-trace", str(short),
        )
        assert proc.returncode == 0, proc.stderr + proc.stdout
        replayed = run_cli("replay", "TokenRing", "--trace", str(short))
        assert replayed.returncode == 0
        assert (
            "diverged: yes — replay with the bounds the trace was recorded under"
            in replayed.stdout
        )
        assert "threshold 1000" in replayed.stdout
        gated = run_cli(
            "replay", "TokenRing", "--trace", str(short), "--expect-bug"
        )
        assert gated.returncode == 1
        # ...and given the bound it asks for, replay is faithful again.
        bounded = run_cli(
            "replay", "TokenRing", "--trace", str(short),
            "--max-hot-steps", "100", "--expect-bug",
        )
        assert bounded.returncode == 0, bounded.stderr + bounded.stdout
        assert "reproduced:" in bounded.stdout
        assert "threshold 100" in bounded.stdout
        assert "diverged" not in bounded.stdout

    @pytest.mark.parametrize("mode", ["spawn", "pool", "inline"])
    def test_workers_is_no_longer_a_test_flag(self, mode):
        proc = run_cli("test", "BoundedAsync", "--workers", mode)
        assert proc.returncode == 2
        assert f"unrecognized arguments: --workers {mode}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_module_class_target(self):
        proc = run_cli(
            "test", "tests.machines:RacyCounter",
            "--max-iterations", "300", "--seed", "1", "--expect-bug",
        )
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert "bug:" in proc.stdout

    def test_strategy_parameters(self):
        proc = run_cli(
            "test", "BoundedAsync", "--strategy", "pct,depth=10,seed=3",
            "--max-iterations", "30",
        )
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert proc.stdout.startswith("pct:")

    def test_portfolio_flag(self):
        proc = run_cli(
            "test", "BoundedAsync", "--portfolio", "2", "--seed", "7",
            "--max-iterations", "100", "--time-limit", "60",
        )
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert "worker" in proc.stdout  # per-strategy sub-report lines

    def test_expect_bug_unmet_exits_1(self):
        proc = run_cli(
            "test", "tests.machines:Ping",
            "--max-iterations", "20", "--seed", "1", "--expect-bug",
        )
        assert proc.returncode == 1, proc.stderr + proc.stdout
        assert "no bug found" in proc.stdout

    def test_unknown_benchmark_exits_2(self):
        proc = run_cli("test", "NoSuchBenchmark", "--max-iterations", "5")
        assert proc.returncode == 2
        assert "unknown benchmark" in proc.stderr

    def test_portfolio_and_strategy_conflict(self):
        proc = run_cli(
            "test", "BoundedAsync", "--portfolio", "2",
            "--strategy", "random", "--max-iterations", "5",
        )
        assert proc.returncode == 2
        assert "not both" in proc.stderr


class TestMainInProcess:
    """The same flows through ``repro.__main__.main`` directly — fast,
    and visible to in-process coverage measurement."""

    def test_bench_list(self, capsys):
        from repro.__main__ import main

        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "Raft" in out and "liveness" in out

    def test_test_save_trace_and_replay(self, tmp_path, capsys):
        from repro.__main__ import main

        trace = tmp_path / "bounded.json"
        code = main([
            "test", "BoundedAsync", "--max-iterations", "50", "--seed", "7",
            "--expect-bug", "--save-trace", str(trace),
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "trace saved" in out
        assert main([
            "replay", "BoundedAsync", "--trace", str(trace), "--expect-bug",
        ]) == 0
        assert "reproduced:" in capsys.readouterr().out

    def test_explicit_strategies_form_a_portfolio(self, capsys):
        from repro.__main__ import main

        code = main([
            "test", "TwoPhaseCommit",
            "--strategy", "random,seed=7", "--strategy", "fair-random,seed=8",
            "--max-iterations", "100", "--time-limit", "60",
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert out.count("worker") >= 2

    def test_exit_codes(self, capsys):
        from repro.__main__ import main

        assert main(["test", "NoSuchBenchmark", "--max-iterations", "5"]) == 2
        assert main([
            "test", "tests.machines:Ping",
            "--max-iterations", "10", "--seed", "1", "--expect-bug",
        ]) == 1
        capsys.readouterr()

    def test_config_errors_exit_2_not_traceback(self, capsys):
        from repro.__main__ import main

        # Misspelled strategy parameter: a clean config error, no crash.
        assert main([
            "test", "BoundedAsync", "--strategy", "pct,dept=3",
            "--max-iterations", "5",
        ]) == 2
        assert "invalid parameters" in capsys.readouterr().err
        # --portfolio 0 hits TestConfig validation, not a silent 4-worker run.
        assert main([
            "test", "BoundedAsync", "--portfolio", "0", "--max-iterations", "5",
        ]) == 2
        assert "portfolio_workers" in capsys.readouterr().err
        # bench without --list refuses instead of pretending the flag matters.
        assert main(["bench"]) == 2
        capsys.readouterr()

    def test_save_trace_without_bug_warns(self, tmp_path, capsys):
        from repro.__main__ import main

        trace = tmp_path / "none.json"
        assert main([
            "test", "tests.machines:Ping", "--max-iterations", "5",
            "--seed", "1", "--save-trace", str(trace),
        ]) == 0
        captured = capsys.readouterr()
        assert "no trace to save" in captured.err
        assert not trace.exists()


class TestConfigFile:
    """``test --config campaign.json`` — the file-driven campaign entry."""

    def _write(self, tmp_path, obj):
        import json

        path = tmp_path / "campaign.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        return path

    def test_config_file_runs_campaign(self, tmp_path):
        path = self._write(
            tmp_path,
            {
                "version": 1,
                "program": "BoundedAsync",
                "strategy": "random",
                "seed": 7,
                "max_iterations": 50,
            },
        )
        proc = run_cli("test", "--config", str(path), "--expect-bug")
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert "bug:" in proc.stdout

    def test_unknown_field_exits_2(self, tmp_path):
        path = self._write(
            tmp_path, {"version": 1, "program": "Raft", "max_iteratons": 5}
        )
        proc = run_cli("test", "--config", str(path))
        assert proc.returncode == 2
        assert "unknown field" in proc.stderr

    def test_spawn_workers_in_a_campaign_file_exits_2(self, tmp_path):
        path = self._write(
            tmp_path, {"version": 1, "program": "Raft", "workers": "spawn"}
        )
        proc = run_cli("test", "--config", str(path))
        assert proc.returncode == 2
        assert "TestConfig.workers: expected one of auto, inline, got" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_target_and_config_conflict(self, tmp_path):
        path = self._write(tmp_path, {"version": 1, "program": "Raft"})
        proc = run_cli("test", "BoundedAsync", "--config", str(path))
        assert proc.returncode == 2
        assert "exactly one" in proc.stderr

    def test_neither_target_nor_config_exits_2(self):
        proc = run_cli("test")
        assert proc.returncode == 2
        assert "exactly one" in proc.stderr

    def test_strategy_flag_conflicts_with_config(self, tmp_path):
        path = self._write(tmp_path, {"version": 1, "program": "Raft"})
        proc = run_cli("test", "--config", str(path), "--strategy", "dfs")
        assert proc.returncode == 2
        assert "--strategy" in proc.stderr

    def test_typed_flags_override_the_file(self, tmp_path):
        # The file alone: BoundedAsync's bug at schedule 13, one backend line.
        path = self._write(
            tmp_path,
            {"version": 1, "program": "BoundedAsync", "seed": 7, "max_iterations": 200},
        )
        alone = run_cli("test", "--config", str(path))
        assert alone.returncode == 0, alone.stderr + alone.stdout
        assert "random: 13 schedules" in alone.stdout and "bug:" in alone.stdout
        # Three flags the parent ignored without a word: 3 schedules, not
        # 200 (nor 13); 5 scheduling points each; no stop at a first bug.
        proc = run_cli(
            "test", "--config", str(path),
            "--max-iterations", "3", "--max-steps", "5", "--keep-going",
        )
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert "random: 3 schedules" in proc.stdout
        assert "#SP=5," in proc.stdout

    def test_every_config_flag_overrides_and_an_untyped_one_never_does(self, tmp_path):
        from repro import FaultConfig, TestConfig
        from repro.__main__ import _build_parser, _config_from_args

        base = TestConfig(
            "RaftLossy", seed=7, max_iterations=200, time_limit=9.0, max_steps=300,
            stop_on_first_bug=True, workers="inline", max_hot_steps=50,
            iteration_timeout=4.0, faults=FaultConfig(drop=0.5, max_faults=3),
            reduction="dpor", state_cache_size=99, events_path="/tmp/file.jsonl",
        )
        path = tmp_path / "campaign.json"
        base.save(path)
        parse = _build_parser().parse_args
        assert _config_from_args(parse(["test", "--config", str(path)])) == base
        typed = _config_from_args(parse([
            "test", "--config", str(path), "--seed", "8", "--max-iterations", "3",
            "--time-limit", "2", "--max-steps", "5", "--keep-going",
            "--max-hot-steps", "6", "--livelock-as-bug",
            "--iteration-timeout", "1.5", "--fault-crash", "0.25",
            "--fault-budget", "4", "--reduction", "dpor+state-cache",
            "--state-cache-size", "7", "--coverage", "--events", "/tmp/typed.jsonl",
            "--portfolio", "2",
        ]))
        assert typed == base.with_overrides(
            seed=8, max_iterations=3, time_limit=2.0, max_steps=5,
            stop_on_first_bug=False, max_hot_steps=6,
            livelock_as_bug=True, iteration_timeout=1.5,
            # A fault flag overrides that field of the file's faults.
            faults=FaultConfig(drop=0.5, crash=0.25, max_faults=4),
            reduction="dpor+state-cache", state_cache_size=7, coverage=True,
            events_path="/tmp/typed.jsonl", portfolio_workers=2,
        )
        with pytest.raises(SystemExit):  # the carrier is not a flag
            parse(["test", "--config", str(path), "--workers", "inline"])
        cleared = _config_from_args(parse(["test", "--config", str(path), "--no-faults"]))
        assert cleared == base.with_overrides(faults=FaultConfig())
        # By TARGET the base is the declared defaults — the parser has none.
        assert _config_from_args(parse(["test", "Raft"])) == TestConfig("Raft")
        assert vars(parse(["test", "Raft"])).keys().isdisjoint(
            name for name, _ in TestConfig.FIELDS + FaultConfig.FIELDS
        )
        # ...and a fault flag overrides the registry variant's own faults.
        lossy = _config_from_args(parse(["test", "RaftLossy", "--fault-budget", "2"]))
        assert lossy.faults == dataclasses.replace(
            TestConfig("RaftLossy").resolved_faults(), max_faults=2
        )

    @pytest.mark.parametrize("field, value", [
        ("max_iterations", 5.5), ("seed", "abc"), ("start_method", "bogus"),
        ("coverage", "no"), ("stop_on_first_bug", "false"),
    ])
    def test_a_mistyped_campaign_field_exits_2_in_one_line(self, tmp_path, field, value):
        path = self._write(
            tmp_path, {"version": 1, "program": "BoundedAsync", field: value}
        )
        for command in (("test",), ("replay", "--trace", str(path)), ("serve", "--workers", "1")):
            proc = run_cli(command[0], "--config", str(path), *command[1:])
            assert proc.returncode == 2, proc.stdout + proc.stderr
            assert proc.stdout == ""
            assert proc.stderr.startswith(f"error: {path}: TestConfig.{field}: expected ")
            assert "Traceback" not in proc.stderr
            assert len(proc.stderr.strip().splitlines()) == 1

    def test_a_config_file_bug_replays_from_the_same_file(self, tmp_path):
        path = self._write(
            tmp_path,
            {
                "version": 1, "program": "TokenRing", "strategy": "fair-random",
                "seed": 1, "max_hot_steps": 100,
            },
        )
        trace = tmp_path / "ring.trace.json"
        proc = run_cli(
            "test", "--config", str(path), "--save-trace", str(trace), "--expect-bug"
        )
        assert proc.returncode == 0, proc.stderr + proc.stdout
        replayed = run_cli(
            "replay", "--config", str(path), "--trace", str(trace), "--expect-bug"
        )
        assert replayed.returncode == 0, replayed.stderr + replayed.stdout
        assert "reproduced:" in replayed.stdout and "diverged" not in replayed.stdout
        # TARGET alone does not carry the file's bound: flagged, gated.
        bare = run_cli("replay", "TokenRing", "--trace", str(trace), "--expect-bug")
        assert bare.returncode == 1 and "diverged: yes" in bare.stdout
        both = run_cli("replay", "TokenRing", "--config", str(path), "--trace", str(trace))
        assert both.returncode == 2 and "exactly one" in both.stderr
