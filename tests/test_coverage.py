"""Activity coverage + campaign telemetry (the observability layer).

Covers the three surfaces the layer adds:

* the :class:`~repro.testing.coverage.CoverageMap` itself — merge,
  the wire round-trip, equality, declared-vs-visited deltas, and the headline
  guarantee that the map is bit-identical across the inline and threaded
  carriers for a given seed;
* telemetry counters and the JSONL event stream;
* the report/checkpoint persistence round-trip and the ``python -m
  repro report`` rendering, plus the satellite report changes (bug
  dedup by trace fingerprint, summary surfacing).
"""

import json

import pytest

from repro.bench.registry import all_benchmarks, coverage_smoke_suite
from repro.errors import BugReport
from repro.testing import (
    Campaign,
    CoverageMap,
    TestConfig,
    TestReport,
    ThreadedRuntime,
)
from repro.testing.checkpoint import load_checkpoint, save_checkpoint
from repro.testing.fleet import decode_report, encode_report
from repro.testing.portfolio import StrategySpec
from repro.testing.reporting import (
    coverage_dot,
    coverage_table,
    load_campaign,
    report_document,
    save_report,
)
from repro.testing.telemetry import EventLog, Histogram, TelemetryStats
from repro.testing.trace import ScheduleTrace

from .test_cli import run_cli


def _campaign(target, *, workers="auto", iterations=5, seed=7, **overrides):
    config = TestConfig(
        program=target,
        strategy="random,seed=%d" % seed,
        max_iterations=iterations,
        max_steps=2_000,
        stop_on_first_bug=False,
        workers=workers,
        coverage=True,
        **overrides,
    )
    return Campaign(config).run()


# ---------------------------------------------------------------------------
# CoverageMap unit behaviour
# ---------------------------------------------------------------------------
class TestCoverageMap:
    def test_empty_map_is_falsy(self):
        assert not CoverageMap()
        assert "nothing recorded" in coverage_table(CoverageMap())[0]

    def test_collects_declared_vs_visited(self):
        report = _campaign("Raft")
        cov = report.coverage
        assert cov is not None and cov
        server = cov.machines["BuggyRaftServer"]
        assert set(server.declared_states) == set(server.states_visited)
        # The seeded Raft bug's repair transition is declared but never
        # taken in a short campaign: the delta names it.
        uncovered = server.uncovered_transitions()
        assert ("Leader", "EBackToFollower", "Follower") in uncovered
        assert 0.0 < server.transition_coverage < 1.0

    def test_monitors_are_covered_and_flagged(self):
        cov = _campaign("Raft").coverage
        monitor = cov.machines["ElectionSafetyMonitor"]
        assert monitor.is_monitor
        assert monitor.states_visited  # booted during runtime reset

    def test_event_counters(self):
        cov = _campaign("Raft").coverage
        totals = cov.totals()
        assert totals["events_sent"] > 0
        assert totals["events_dequeued"] > 0
        # A no-faults campaign delivers what it sends (minus events still
        # queued at the depth bound and sends to halted machines).
        assert totals["events_dequeued"] <= totals["events_sent"]

    def test_merge_sums_and_unions(self):
        a = _campaign("Raft", iterations=2, seed=1).coverage
        b = _campaign("Raft", iterations=2, seed=2).coverage
        sent_a = a.totals()["events_sent"]
        sent_b = b.totals()["events_sent"]
        merged = a.copy().merge(b)
        assert merged.totals()["events_sent"] == sent_a + sent_b
        server = merged.machines["BuggyRaftServer"]
        assert server.instances == (
            a.machines["BuggyRaftServer"].instances
            + b.machines["BuggyRaftServer"].instances
        )
        union = set(a.machines["BuggyRaftServer"].transitions_taken) | set(
            b.machines["BuggyRaftServer"].transitions_taken
        )
        assert set(server.transitions_taken) == union

    def test_pickle_roundtrip_preserves_equality_and_fingerprint(self):
        # (The id predates JSON being the only format: what crosses a
        # process boundary now is the wire document, as JSON text.)
        cov = _campaign("Raft").coverage
        clone = CoverageMap.decode(json.loads(json.dumps(cov.encode())))
        assert clone == cov
        assert clone.encode() == cov.encode()

    def test_fingerprint_distinguishes_different_campaigns(self):
        a = _campaign("Raft", iterations=2, seed=1).coverage
        b = _campaign("Raft", iterations=2, seed=2).coverage
        c = _campaign("Raft", iterations=2, seed=1).coverage
        assert a == c
        assert a != b


# ---------------------------------------------------------------------------
# Backend bit-identity: the map measures the program, not the backend
# ---------------------------------------------------------------------------
class TestBackendIdentity:
    @pytest.mark.parametrize(
        "name", sorted(b.name for b in all_benchmarks())
    )
    def test_identical_across_backends(self, name):
        benchmark = next(b for b in all_benchmarks() if b.name == name)
        variant = benchmark.buggy or benchmark.correct
        assert variant.main.inline_compatible()
        maps = {
            carrier: _campaign(name, runtime_factory=factory, iterations=3).coverage
            for carrier, factory in (("threads", ThreadedRuntime), ("inline", None))
        }
        assert maps["threads"] == maps["inline"], (
            f"{name}: coverage diverged across backends {sorted(maps)}"
        )

    def test_auto_and_inline_are_the_same_carrier(self):
        auto = _campaign("Raft", workers="auto")
        explicit = _campaign("Raft", workers="inline")
        assert auto.effective_backend == explicit.effective_backend == "inline"
        assert auto.coverage == explicit.coverage


# ---------------------------------------------------------------------------
# Portfolio merge + checkpoint/resume
# ---------------------------------------------------------------------------
SPECS = (
    StrategySpec("random", {"seed": 11}),
    StrategySpec("random", {"seed": 12}),
)


def _portfolio_config(**overrides):
    return TestConfig(
        program="BoundedAsync",
        specs=SPECS,
        max_iterations=10,
        max_steps=2_000,
        stop_on_first_bug=False,
        coverage=True,
        **overrides,
    )


class TestPortfolioCoverage:
    def test_campaign_coverage_is_shard_merge(self):
        campaign = Campaign(_portfolio_config()).portfolio()
        assert campaign.coverage is not None
        merged = CoverageMap()
        for shard in campaign.sub_reports:
            assert shard.coverage is not None
            merged.merge(shard.coverage)
        assert campaign.coverage == merged

    def test_resumed_campaign_coverage_matches_uninterrupted(self, tmp_path):
        baseline = Campaign(_portfolio_config()).portfolio()
        ckpt = tmp_path / "campaign.ckpt"
        Campaign(_portfolio_config()).portfolio(checkpoint=ckpt)
        # Simulate a crash after shard 0 completed: rewrite the
        # checkpoint without shard 1 and resume.
        state = load_checkpoint(ckpt)
        save_checkpoint(
            ckpt,
            fingerprint=state["fingerprint"],
            specs=state["specs"],
            completed={0: state["completed"][0]},
        )
        resumed = Campaign(_portfolio_config()).portfolio(resume=ckpt)
        assert resumed.iterations == baseline.iterations
        assert resumed.coverage == baseline.coverage

    def test_checkpoint_fingerprint_covers_coverage_flag(self, tmp_path):
        from repro.errors import PSharpError

        ckpt = tmp_path / "campaign.ckpt"
        Campaign(_portfolio_config()).portfolio(checkpoint=ckpt)
        plain = _portfolio_config().with_overrides(coverage=False)
        with pytest.raises(PSharpError):
            Campaign(plain).portfolio(resume=ckpt)


# ---------------------------------------------------------------------------
# Satellite: bug dedup + summary surfacing
# ---------------------------------------------------------------------------
def _trace(decisions):
    trace = ScheduleTrace()
    for value in decisions:
        trace.record("sched", value)
    return trace


class TestReportSatellites:
    def test_merge_dedups_bugs_by_trace_fingerprint(self):
        first = TestReport(strategy="a")
        first.bugs.append(
            BugReport(kind="assert", message="x", trace=_trace([1, 2, 3]))
        )
        second = TestReport(strategy="b")
        second.bugs.append(
            BugReport(kind="assert", message="x", trace=_trace([1, 2, 3]))
        )
        second.bugs.append(
            BugReport(kind="assert", message="y", trace=_trace([4, 5]))
        )
        first.merge(second)
        assert len(first.bugs) == 2
        assert first.distinct_bugs == 2

    def test_a_fold_of_shard_reports_hashes_each_trace_once(self, monkeypatch):
        # Every merge looks at every bug already held; the digest is kept
        # on the trace, so 30 reports cost 30 hashes, not 30 * 31 / 2.
        import repro.testing.trace as trace_module

        hashed = []
        real = trace_module.sha256
        monkeypatch.setattr(
            trace_module, "sha256",
            lambda data=b"": hashed.append(1) or real(data),
        )
        shards = []
        for index in range(30):
            shard = TestReport(strategy=f"s{index}")
            shard.bugs.append(
                BugReport(kind="assert", message="x", trace=_trace([index, 1]))
            )
            shards.append(shard)
        merged = TestReport.merged(shards)
        assert len(merged.bugs) == 30 and merged.distinct_bugs == 30
        assert len(hashed) == 30

    def test_a_kept_digest_does_not_outlive_an_append(self):
        trace = _trace([1, 2])
        before = trace.fingerprint()
        assert trace.fingerprint() == before == _trace([1, 2]).fingerprint()
        trace.record("sched", 3)
        assert trace.fingerprint() == _trace([1, 2, 3]).fingerprint() != before

    def test_traceless_bugs_each_count(self):
        report = TestReport(strategy="a")
        report.bugs.append(BugReport(kind="assert", message="x"))
        other = TestReport(strategy="b")
        other.bugs.append(BugReport(kind="assert", message="x"))
        report.merge(other)
        assert len(report.bugs) == 2
        assert report.distinct_bugs == 2

    def test_bug_classes_are_kind_and_message_whatever_the_schedule(self):
        report = TestReport(strategy="a")
        report.bugs += [
            BugReport(kind="assert", message="x", trace=_trace([1])),
            BugReport(kind="assert", message="x", trace=_trace([2])),
            BugReport(kind="monitor", message="x"),
        ]
        assert report.distinct_bugs == 3
        assert report.bug_classes == frozenset({("assert", "x"), ("monitor", "x")})
        assert "distinct=3, classes=2" in report.summary()
        # Derived, like faults_injected: no field of the report document.
        document = report_document(report)["report"]
        assert "bug_classes" not in document and "classes" not in document
        assert decode_report(encode_report(report)).bug_classes == report.bug_classes

    def test_summary_surfaces_observability_fields(self):
        report = TestReport(strategy="random")
        report.iterations = 10
        report.elapsed = 1.0
        report.watchdog_hits = 2
        report.fault_kinds = {"drop": 3, "delay": 2}
        report.effective_backend = "threads"
        report.bugs.append(
            BugReport(kind="assert", message="boom", trace=_trace([1]))
        )
        report.buggy_iterations = 1
        report.first_bug = report.bugs[0]
        summary = report.summary()
        assert "watchdog=2" in summary
        assert "faults=5" in summary
        assert "[threads]" in summary
        assert "distinct=1, classes=1" in summary

    def test_detached_carries_coverage_and_telemetry(self):
        report = _campaign("Raft")
        clone = decode_report(encode_report(report.detached()))
        assert clone.coverage == report.coverage
        assert clone.telemetry == report.telemetry
        assert clone.telemetry.consulted == report.telemetry.consulted > 0


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------
class TestTelemetry:
    def test_histogram_records_and_merges(self):
        h = Histogram()
        for value in (1, 2, 3, 100):
            h.record(value)
        assert h.count == 4
        assert h.min == 1 and h.max == 100
        assert h.mean == pytest.approx(26.5)
        other = Histogram()
        other.record(200)
        h.merge(other)
        assert h.count == 5 and h.max == 200

    def test_stats_consult_ratio(self):
        stats = TelemetryStats()
        stats.record_iteration(
            steps=10,
            scheduling_points=10,
            wall_seconds=0.001,
            since_start=0.5,
            consulted=8,
        )
        assert stats.consulted == 8 and stats.forced == 2
        assert stats.consult_ratio == pytest.approx(0.8)
        assert any("consulted" in line for line in stats.summary_lines())

    def test_campaign_populates_telemetry(self):
        report = _campaign("Raft")
        stats = report.telemetry
        assert stats is not None
        assert stats.iterations == report.iterations
        assert stats.steps.count == report.iterations
        assert stats.iteration_us.count == report.iterations
        assert stats.consulted + stats.forced == report.total_scheduling_points

    def test_event_log_stream(self, tmp_path):
        path = tmp_path / "events.jsonl"
        config = TestConfig(
            program="BoundedAsync",
            strategy="random,seed=7",
            max_iterations=30,
            max_steps=2_000,
            events_path=path,
        )
        report = Campaign(config).run()
        assert report.bug_found
        records = [json.loads(line) for line in path.read_text().splitlines()]
        types = [record["type"] for record in records]
        for expected in (
            "campaign_start", "shard_start", "bug_found", "shard_end",
            "campaign_end",
        ):
            assert expected in types, types
        assert all("ts" in record and "pid" in record for record in records)

    def test_event_log_swallows_write_failures(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path)
        log.emit("probe")
        log.close()
        log.emit("after-close")  # must not raise
        assert len(path.read_text().splitlines()) == 1

    def test_portfolio_event_stream_tags_shards(self, tmp_path):
        path = tmp_path / "events.jsonl"
        Campaign(_portfolio_config(events_path=path)).portfolio()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        types = {record["type"] for record in records}
        assert {"fleet_start", "fleet_worker_spawn", "fleet_worker_ready",
                "fleet_work_assigned", "fleet_shard_result",
                "fleet_worker_exit", "fleet_end",
                "shard_start", "shard_end"} <= types
        for span in ("shard_start", "shard_end"):
            shards = {
                record["shard"] for record in records if record["type"] == span
            }
            assert shards == {0, 1}, span
        # One worker process per spec; shard records carry a worker's pid.
        spawned = {r["pid"] for r in records if r["type"] == "fleet_worker_spawn"}
        assert len(spawned) == 2
        assert {r["pid"] for r in records if r["type"] == "shard_end"} <= spawned


# ---------------------------------------------------------------------------
# Reporting: persistence + rendering
# ---------------------------------------------------------------------------
class TestReporting:
    def test_save_load_roundtrip(self, tmp_path):
        report = _campaign("Raft")
        path = tmp_path / "campaign.report"
        save_report(path, report)
        loaded = load_campaign(path)
        assert loaded.iterations == report.iterations
        assert loaded.coverage == report.coverage

    def test_load_campaign_reads_checkpoints(self, tmp_path):
        ckpt = tmp_path / "campaign.ckpt"
        campaign = Campaign(_portfolio_config()).portfolio(checkpoint=ckpt)
        loaded = load_campaign(ckpt)
        assert loaded.iterations == campaign.iterations
        assert loaded.coverage == campaign.coverage

    def test_load_campaign_rejects_garbage(self, tmp_path):
        from repro.errors import PSharpError

        path = tmp_path / "garbage"
        path.write_bytes(b"not a pickle")
        with pytest.raises(PSharpError):
            load_campaign(path)

    def test_coverage_table_names_uncovered(self):
        lines = coverage_table(_campaign("Raft").coverage)
        text = "\n".join(lines)
        assert "BuggyRaftServer" in text
        assert "Leader --EBackToFollower--> Follower" in text
        assert "events sent=" in text

    def test_report_json_shape(self):
        report = _campaign("Raft")
        data = json.loads(json.dumps(report_document(report)))  # plain JSON
        assert data["version"] == 3 and data["kind"] == "campaign-report"
        assert data["report"]["iterations"] == report.iterations
        assert "iterations" not in data["report"]["telemetry"]
        assert sum(data["report"]["telemetry"]["steps"]["buckets"].values()) == (
            report.iterations
        )
        assert TestReport.decode(data["report"]) == report.detached()

    def test_coverage_dot_marks_unvisited_dashed(self):
        dot = coverage_dot(_campaign("Raft").coverage)
        assert dot.startswith("digraph coverage {")
        assert 'label="EBackToFollower"' in dot
        assert "style=dashed" in dot


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCoverageCli:
    def test_test_coverage_names_uncovered_transition(self):
        proc = run_cli(
            "test", "Raft", "--coverage", "--seed", "7",
            "--max-iterations", "5", "--max-steps", "1500",
        )
        assert proc.returncode == 0, proc.stderr + proc.stdout
        assert "activity coverage:" in proc.stdout
        assert "uncovered transitions" in proc.stdout
        assert "--EBackToFollower-->" in proc.stdout

    def test_report_roundtrip_via_main(self, tmp_path, capsys):
        from repro.__main__ import main

        saved = tmp_path / "campaign.report"
        code = main([
            "test", "Raft", "--seed", "7", "--max-iterations", "5",
            "--max-steps", "1500", "--coverage-report", str(saved),
        ])
        assert code == 0
        assert saved.exists()
        capsys.readouterr()
        assert main(["report", str(saved), "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == json.loads(saved.read_text(encoding="utf-8"))
        assert data["report"]["coverage"]["machines"]["BuggyRaftServer"]
        assert data["report"]["iterations"] == 5

    def test_report_dot_output(self, tmp_path, capsys):
        from repro.__main__ import main

        saved = tmp_path / "campaign.report"
        main([
            "test", "Raft", "--seed", "7", "--max-iterations", "3",
            "--max-steps", "1500", "--coverage-report", str(saved),
        ])
        capsys.readouterr()
        assert main(["report", str(saved), "--dot", "-"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph coverage {")

    def test_coverage_smoke_suite_is_fast_subset(self):
        names = {b.name for b in coverage_smoke_suite()}
        assert names == {"Raft", "German", "ProcessScheduler", "TokenRing"}
        assert names <= {b.name for b in all_benchmarks()}
