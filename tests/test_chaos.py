"""Campaign self-robustness: the tester must survive its own failures.

A campaign that hunts crash bugs in distributed protocols cannot itself
fall over when a worker process dies.  These tests kill workers with
SIGKILL mid-campaign, wedge executions past the watchdog, interrupt the
CLI with SIGINT, and hand the resume path corrupt checkpoints — and
assert the campaign still produces a complete (or honestly partial)
merged report, leaks no child processes, and never re-runs work a
checkpoint already persisted.
"""

import collections
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro import PSharpError, StrategySpec, TestConfig
from repro.testing.checkpoint import (
    config_fingerprint,
    load_checkpoint,
    save_checkpoint,
)
from repro.testing.config import Campaign
from repro.testing.fleet import run_fleet

from .machines import Ping, SelfLoop
from .test_fleet import events_of, read_events

ROOT = Path(__file__).resolve().parents[1]

TWO_SHARDS = (
    StrategySpec("random", {"seed": 1}),
    StrategySpec("random", {"seed": 2}),
)


def _drain_children(timeout=5.0):
    """Wait for any straggler child processes; return the survivors."""
    deadline = time.monotonic() + timeout
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.05)
    return multiprocessing.active_children()


class TestWorkerCrashResilience:
    def test_sigkilled_worker_is_respawned_and_report_completes(self):
        # A no-bug target with an iteration budget far beyond the time
        # limit, so both workers are guaranteed to still be running when
        # the killer thread strikes.
        config = TestConfig(
            program=Ping,
            specs=TWO_SHARDS,
            max_iterations=10_000_000,
            time_limit=4.0,
            max_steps=2_000,
        )
        killed = []

        def kill_one_worker():
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                children = multiprocessing.active_children()
                if children:
                    time.sleep(0.3)  # let it get some real work done
                    victim = multiprocessing.active_children()
                    if victim:
                        os.kill(victim[0].pid, signal.SIGKILL)
                        killed.append(victim[0].pid)
                    return
                time.sleep(0.02)

        killer = threading.Thread(target=kill_one_worker)
        killer.start()
        try:
            report = Campaign(config).portfolio()
        finally:
            killer.join()

        assert killed, "killer thread never saw a worker process"
        # The merged report still covers every shard: the murdered
        # worker was respawned and its replacement reported.
        assert len(report.sub_reports) == len(TWO_SHARDS)
        for sub in report.sub_reports:
            assert sub.iterations > 0, sub
        assert not report.bug_found
        # Satellite guarantee: no child processes leak past the campaign.
        assert _drain_children() == []

    def test_clean_portfolio_leaks_no_children(self):
        config = TestConfig(
            program=Ping,
            specs=TWO_SHARDS,
            max_iterations=100,
            time_limit=30.0,
            max_steps=2_000,
        )
        report = Campaign(config).portfolio()
        assert len(report.sub_reports) == len(TWO_SHARDS)
        assert _drain_children() == []


class TestFleetWorkerCrashResilience:
    def test_sigkilled_forked_worker_is_respawned_and_merge_completes(
        self, tmp_path
    ):
        # protocol.md §6 for the coordinator's own (forked) workers: the
        # victim's shard is re-queued, its slot respawned, and the merged
        # report is the one an undisturbed run produces.
        events_path = tmp_path / "fleet.events.jsonl"
        config = TestConfig(
            program="BoundedAsync",
            specs=TWO_SHARDS + (
                StrategySpec("pct", {"depth": 10, "seed": 3}),
                StrategySpec("delay-bounding", {"delays": 2, "seed": 4}),
            ),
            max_iterations=3_000,
            time_limit=120.0,
            stop_on_first_bug=False,
        )

        def events(*types):
            if not events_path.exists():
                return []
            with open(events_path, encoding="utf-8") as fh:
                records = [json.loads(line) for line in fh if line.strip()]
            return [r for r in records if r["type"] in types]

        killed = []

        def kill_one_worker():
            deadline = time.monotonic() + 20.0
            while time.monotonic() < deadline:
                if len(events("fleet_work_assigned")) >= 2:
                    time.sleep(0.2)  # let it get into the middle of a shard
                    victim = events("fleet_worker_spawn")[0]["pid"]
                    os.kill(victim, signal.SIGKILL)
                    killed.append(victim)
                    return
                time.sleep(0.02)

        killer = threading.Thread(target=kill_one_worker)
        killer.start()
        try:
            report = run_fleet(
                config.with_overrides(events_path=str(events_path)),
                local_workers=2,
            )
        finally:
            killer.join()

        assert killed, "killer thread never saw two busy workers"
        undisturbed = Campaign(config).portfolio()
        assert report.iterations == undisturbed.iterations == 4 * 3_000
        assert {b.trace.fingerprint() for b in report.bugs} == {
            b.trace.fingerprint() for b in undisturbed.bugs
        }
        recovery = [
            record["type"]
            for record in events(
                "fleet_worker_lost", "fleet_shard_requeued",
                "fleet_worker_respawn",
            )
        ]
        assert recovery == [
            "fleet_worker_lost", "fleet_shard_requeued", "fleet_worker_respawn",
        ]
        exits = {r["pid"]: r for r in events("fleet_worker_exit")}
        assert len(exits) == 3  # two originals and the replacement
        assert exits[killed[0]]["exitcode"] == -signal.SIGKILL
        assert sum(r["shards"] for r in exits.values()) == 4
        assert _drain_children() == []


class TestFleetBatchLoss:
    def test_a_worker_killed_mid_batch_requeues_only_its_running_shard(
        self, tmp_path
    ):
        # protocol.md §6 for a batch: of a lost worker's units only the
        # one it was running counts as requeued; the ones it never
        # started go back to the pending shards uncounted.  Either way
        # each reruns from scratch, so the merge is the in-process one.
        events_path = tmp_path / "fleet.events.jsonl"
        specs = tuple(StrategySpec("random", {"seed": seed}) for seed in range(24))
        config = TestConfig(
            program="BoundedAsync", specs=specs, max_iterations=300,
            time_limit=120.0, stop_on_first_bug=False,
        )

        def events(*types):
            return events_of(events_path, *types)

        killed = []

        def kill_mid_batch():
            # The victim has delivered the first result of its batch of
            # six (24 shards, 2 workers: 24 // 4) and is on the next.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                spawns = events("fleet_worker_spawn")
                if spawns:
                    victim = spawns[0]["pid"]
                    mine = {
                        e["shard"] for e in events("fleet_work_assigned")
                        if e["worker"] == f"local-0(pid {victim})"
                    }
                    if mine & {e["shard"] for e in events("fleet_shard_result")}:
                        os.kill(victim, signal.SIGKILL)
                        killed.append(victim)
                        return
                time.sleep(0.01)

        killer = threading.Thread(target=kill_mid_batch)
        killer.start()
        try:
            report = run_fleet(
                config.with_overrides(events_path=str(events_path)),
                local_workers=2,
            )
        finally:
            killer.join()

        assert killed, "the victim never delivered a result"
        in_process = [
            Campaign(config.with_overrides(specs=None, strategy=spec)).run()
            for spec in specs
        ]
        assert [sub.iterations for sub in report.sub_reports] == [300] * 24
        assert [sub.total_steps for sub in report.sub_reports] == [
            run.total_steps for run in in_process
        ]
        assert {b.trace.fingerprint() for b in report.bugs} == {
            b.trace.fingerprint() for run in in_process for b in run.bugs
        }

        log = read_events(events_path)
        (lost,) = [i for i, e in enumerate(log) if e["type"] == "fleet_worker_lost"]
        victim = f"local-0(pid {killed[0]})"
        batch = [
            e["shard"] for e in log[:lost]
            if e["type"] == "fleet_work_assigned" and e["worker"] == victim
        ]
        done = {e["shard"] for e in log[:lost] if e["type"] == "fleet_shard_result"}
        running = next(shard for shard in batch if shard not in done)
        unstarted = batch[batch.index(running) + 1:]
        assert unstarted, "the victim had nothing queued behind its running shard"
        requeued = [e for e in log if e["type"] == "fleet_shard_requeued"]
        assert [(e["shard"], e["attempt"]) for e in requeued] == [(running, 1)]
        # The unstarted units are handed out again, once, with no requeue.
        again = collections.Counter(
            e["shard"] for e in log[lost:] if e["type"] == "fleet_work_assigned"
        )
        assert all(again[shard] == 1 for shard in [running, *unstarted])
        assert _drain_children() == []


class TestIterationWatchdog:
    def test_wedged_iterations_are_canceled_and_counted(self):
        # SelfLoop never quiesces; with an effectively unbounded depth
        # bound only the wall-clock watchdog can end an iteration.
        config = TestConfig(
            program=SelfLoop,
            strategy="random,seed=0",
            max_iterations=2,
            max_steps=10_000_000,
            iteration_timeout=0.3,
            time_limit=60.0,
        )
        report = Campaign(config).run()
        assert report.watchdog_hits == 2
        assert report.iterations == 2
        assert not report.bug_found


class TestCheckpointResume:
    def _config(self):
        return TestConfig(
            program=Ping,
            specs=TWO_SHARDS,
            max_iterations=100,
            time_limit=30.0,
            max_steps=2_000,
        )

    def test_completed_campaign_writes_checkpoint(self, tmp_path):
        path = tmp_path / "campaign.ckpt"
        report = Campaign(self._config()).portfolio(checkpoint=path)
        assert len(report.sub_reports) == len(TWO_SHARDS)
        state = load_checkpoint(path)
        assert sorted(state["completed"]) == [0, 1]
        assert state["fingerprint"] == config_fingerprint(self._config())

    def test_resume_skips_completed_shards(self, tmp_path):
        path = tmp_path / "campaign.ckpt"
        config = self._config()
        Campaign(config).portfolio(checkpoint=path)

        # Rewrite the checkpoint as if the campaign had been killed
        # after shard 0: plant a sentinel iteration count there (a
        # re-run could never produce it) and drop shard 1.
        state = load_checkpoint(path)
        state["completed"][0].iterations = 123_456
        del state["completed"][1]
        save_checkpoint(
            path,
            fingerprint=state["fingerprint"],
            specs=state["specs"],
            completed=state["completed"],
        )

        report = Campaign(config).portfolio(resume=path)
        assert len(report.sub_reports) == len(TWO_SHARDS)
        # Shard 0 came straight from the checkpoint, untouched.
        assert report.sub_reports[0].iterations == 123_456
        # Shard 1 was actually (re-)run.
        assert 0 < report.sub_reports[1].iterations <= 100
        assert report.iterations == 123_456 + report.sub_reports[1].iterations
        # And the re-run shard was checkpointed on completion.
        assert sorted(load_checkpoint(path)["completed"]) == [0, 1]

    def test_fully_resumed_campaign_runs_nothing(self, tmp_path):
        path = tmp_path / "campaign.ckpt"
        config = self._config()
        first = Campaign(config).portfolio(checkpoint=path)
        before = multiprocessing.active_children()
        events_path = tmp_path / "resumed.events.jsonl"
        resumed = Campaign(
            config.with_overrides(events_path=str(events_path))
        ).portfolio(resume=path)
        assert resumed.iterations == first.iterations
        assert len(resumed.sub_reports) == len(TWO_SHARDS)
        assert multiprocessing.active_children() == before
        # Nothing was pending, so no worker was started just to be reaped.
        assert len(events_of(events_path, "fleet_start", "fleet_end")) == 2
        assert events_of(events_path, "fleet_worker_spawn") == []

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(PSharpError, match="cannot read checkpoint"):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_corrupt_checkpoint_raises(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(PSharpError, match="corrupt checkpoint"):
            load_checkpoint(path)
        truncated = tmp_path / "truncated.ckpt"
        good = tmp_path / "good.ckpt"
        save_checkpoint(
            good,
            fingerprint="f",
            specs=list(TWO_SHARDS),
            completed={},
        )
        truncated.write_bytes(good.read_bytes()[:-7])
        with pytest.raises(PSharpError, match="corrupt checkpoint"):
            load_checkpoint(truncated)

    def test_resume_rejects_checkpoint_from_other_campaign(self, tmp_path):
        path = tmp_path / "campaign.ckpt"
        Campaign(self._config()).portfolio(checkpoint=path)
        other = self._config().with_overrides(max_iterations=999)
        with pytest.raises(PSharpError, match="different campaign"):
            Campaign(other).portfolio(resume=path)

    def test_resume_rejects_what_the_hand_picked_fingerprint_was_blind_to(
        self, tmp_path
    ):
        # Identity is every declared field but the few named in
        # checkpoint.NOT_IDENTITY; at the parent each of these resumed as
        # "complete" under settings no shard had run with.
        from repro.bench.raft import ElectionSafetyMonitor

        path = tmp_path / "campaign.ckpt"
        Campaign(self._config()).portfolio(checkpoint=path)
        for override in (
            {"reduction": "dpor+state-cache"}, {"payload": {"rounds": 2}},
            {"monitors": (ElectionSafetyMonitor,)}, {"max_hot_steps": 5},
            {"livelock_as_bug": True}, {"state_cache_size": 64},
            {"record_traces": False},
        ):
            other = self._config().with_overrides(**override)
            with pytest.raises(PSharpError, match="different campaign.*fewer fields"):
                Campaign(other).portfolio(resume=path)
        # What is not identity still resumes: the mix rides in the file.
        waiting = self._config().with_overrides(
            time_limit=5.0, iteration_timeout=9.0, specs=("dfs",), portfolio_workers=1
        )
        resumed = Campaign(waiting).portfolio(resume=path)
        assert len(resumed.sub_reports) == len(TWO_SHARDS)


class TornWrite:
    """A file whose ``write`` lands half the text and then fails the way
    a full disk — or a kill — does."""

    def __init__(self, fh, error):
        self.fh, self.error = fh, error

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise self.error


class TestAtomicArtifacts:
    """Every file this package writes goes through one writer
    (``repro.testing.record.write_atomic``): a writer that dies mid-dump
    leaves the previous file intact and no temp file behind."""

    def _writers(self, tmp_path):
        from repro.testing import (
            ScheduleTrace, TestReport, load_campaign, save_report,
        )

        config = TestConfig(program="tests.machines:Ping", specs=TWO_SHARDS, seed=3)
        trace = ScheduleTrace([("sched", 1), ("bool", 0), ("sched", 2)])
        report = TestReport(strategy="random", iterations=9)
        return {
            "bug.trace": (trace.save, ScheduleTrace.load),
            "campaign.json": (config.save, TestConfig.load),
            "campaign.report": (
                lambda path: save_report(path, report), load_campaign,
            ),
            "campaign.ckpt": (
                lambda path: save_checkpoint(
                    path, fingerprint="f", specs=list(TWO_SHARDS),
                    completed={1: report},
                ),
                load_checkpoint,
            ),
        }

    @pytest.mark.parametrize(
        "error", [OSError(28, "No space left on device"), KeyboardInterrupt()],
        ids=["disk-full", "sigint"],
    )
    def test_a_writer_dying_mid_dump_leaves_the_previous_file(
        self, tmp_path, monkeypatch, error
    ):
        from repro.testing import record

        writers = self._writers(tmp_path)
        before = {}
        for name, (save, load) in writers.items():
            save(tmp_path / name)
            before[name] = ((tmp_path / name).read_bytes(), load(tmp_path / name))
        assert sorted(os.listdir(tmp_path)) == sorted(writers)

        torn = []

        def tearing_open(path, mode="r", **kwargs):
            fh = open(path, mode, **kwargs)
            if "w" not in mode:
                return fh
            torn.append(path)
            return TornWrite(fh, error)

        monkeypatch.setattr(record, "open", tearing_open, raising=False)
        for name, (save, load) in writers.items():
            with pytest.raises(type(error)):
                save(tmp_path / name)
        monkeypatch.undo()
        assert len(torn) == len(writers), "one writer, and all four use it"
        assert all(path.endswith(".tmp") for path in torn)
        assert sorted(os.listdir(tmp_path)) == sorted(writers), "no *.tmp behind"
        for name, (save, load) in writers.items():
            content, value = before[name]
            assert (tmp_path / name).read_bytes() == content
            assert load(tmp_path / name) == value

    def test_a_failed_first_write_leaves_nothing(self, tmp_path, monkeypatch):
        from repro.testing import record

        def failing_replace(src, dst):
            raise OSError(13, "Permission denied")

        monkeypatch.setattr(record.os, "replace", failing_replace)
        for name, (save, load) in self._writers(tmp_path).items():
            with pytest.raises(OSError):
                save(tmp_path / name)
        assert os.listdir(tmp_path) == []


def run_cli_process(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
    )


class TestGracefulInterrupt:
    def test_sigint_flushes_checkpoint_and_exits_130(self, tmp_path):
        ckpt = tmp_path / "interrupted.ckpt"
        proc = run_cli_process(
            "test", "tests.machines:Ping",
            "--portfolio", "2",
            "--max-iterations", "10000000",
            "--time-limit", "60",
            "--checkpoint", str(ckpt),
        )
        try:
            time.sleep(2.5)  # let the campaign spin up its workers
            proc.send_signal(signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, stdout + stderr
        assert "campaign interrupted (partial results)" in stdout
        # The final flush persisted a (possibly empty) resumable state.
        state = load_checkpoint(ckpt)
        assert state["fingerprint"]

    def test_corrupt_resume_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        proc = run_cli_process(
            "test", "tests.machines:Ping", "--resume", str(bad),
        )
        stdout, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 2, stdout + stderr
        assert "corrupt checkpoint" in stderr
