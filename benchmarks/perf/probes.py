"""Layer probes that do not depend on the workload.

Each traced run of any workload ends with this same fixed set: small,
direct measurements of one layer through its public functions.  On/off
ablations (``*_ns_per_step``) run their two arms interleaved in this one
process, so the difference is host-independent to first order.  Values
are advisory: none has a regression bound.
"""

from __future__ import annotations

import json
import os
import socket
import statistics
import sys
import time
from typing import Any, Callable, Dict, List

from repro.bench import registry
from repro.chess import ChessRuntime
from repro.testing import (
    Campaign,
    Connection,
    EventLog,
    FaultConfig,
    ScheduleTrace,
    TelemetryStats,
    TestConfig,
    TestReport,
    load_campaign,
    load_checkpoint,
    save_checkpoint,
    save_report,
)
from repro.testing.checkpoint import config_fingerprint
from repro.testing.fleet import decode_report, encode_report
from repro.testing.trace import SCHED

from . import checked_child
from .workloads import Sizes

OWN_PROGRAMS = (
    "benchmarks.perf.programs:FanOutCoordinator",
    "benchmarks.perf.programs:LambdaRelay",
)


def _per_call_us(fn: Callable[[], Any], loops: int) -> float:
    start = time.perf_counter()
    for _ in range(loops):
        fn()
    return 1e6 * (time.perf_counter() - start) / loops


def _spawn_seconds(args: List[str], reps: int) -> float:
    """Median spawn-to-exit time of ``python <args>``."""
    return statistics.median(checked_child([sys.executable, *args])[1] for _ in range(reps))


def _soak(program: Any, schedules: int, **overrides: Any):
    kwargs = dict(program=program, strategy="random", seed=11,
                  max_iterations=schedules, time_limit=None, max_steps=5_000,
                  stop_on_first_bug=False)
    kwargs.update(overrides)
    start = time.perf_counter()
    report = Campaign(TestConfig(**kwargs)).run()
    return report, time.perf_counter() - start


def _ns_per_step(reps: int, schedules: int, arms: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """Median ns per scheduling step of each arm, arms interleaved."""
    samples: Dict[str, List[float]] = {label: [] for label in arms}
    for _ in range(reps):
        for label, kwargs in arms.items():
            report, wall = _soak(schedules=schedules, **kwargs)
            samples[label].append(1e9 * wall / report.total_steps)
    return {label: statistics.median(values) for label, values in samples.items()}


# ----------------------------------------------------------------------
def cold_child() -> Dict[str, float]:
    """Runs in a fresh interpreter (``--cold-probe``): what only the first
    use in a process pays for."""
    start = time.perf_counter()
    names = registry.names()
    load_ms = 1e3 * (time.perf_counter() - start)
    penalty = 0.0
    for name in names:
        if registry.get(name).buggy is None:
            continue
        first = _soak(name, 3)[1]
        second = _soak(name, 3)[1]
        penalty += 1e3 * (first - second)
    classes = {
        cls
        for benchmark in registry.all_benchmarks()
        for variant in (benchmark.correct, benchmark.racy, benchmark.buggy)
        if variant is not None
        for cls in variant.machines
    }
    compatible = sum(cls.inline_compatible() for cls in classes)
    return {
        "registry.load_ms": load_ms,
        "core.first_run_penalty_ms": penalty,
        "core.inline_compatible_share": compatible / len(classes),
    }


def process_probes(sizes: Sizes) -> Dict[str, float]:
    """Probes that need a fresh interpreter each."""
    floor = _spawn_seconds(["-c", "pass"], sizes.probe_reps)
    import_s = _spawn_seconds(["-c", "import repro"], sizes.probe_reps)
    cli = _spawn_seconds(
        ["-m", "repro", "test", "ChainReplication", "--seed", "1"], sizes.probe_reps
    )
    cold = checked_child([sys.executable, "-m", "benchmarks.perf", "--cold-probe"])[0]
    return {
        "cli.python_floor_s": floor,
        "core.import_s": import_s,
        "cli.import_share": import_s / cli,
        **json.loads(cold.splitlines()[-1]),
    }


def codec_probes(sizes: Sizes, scratch: str) -> Dict[str, float]:
    """Config, report, trace, checkpoint and frame codecs, called directly."""
    loops = sizes.probe_loops
    config = TestConfig("Raft", seed=5, max_iterations=sizes.probe_schedules,
                        time_limit=None, stop_on_first_bug=False)
    document = config.to_json()
    shards = [
        _soak("Raft", sizes.probe_schedules, seed=seed)[0].detached() for seed in (5, 6)
    ]
    merged = TestReport.merged(shards)
    traces = [bug.trace for bug in merged.bugs if bug.trace is not None]
    # A schedule always has a trace; a bug on it is not guaranteed at smoke sizes.
    trace = max(traces, key=len) if traces else ScheduleTrace([(SCHED, 0)] * 64)
    trace_path = os.path.join(scratch, "probe.trace")
    report_path = os.path.join(scratch, "probe.report")
    checkpoint_path = os.path.join(scratch, "probe.checkpoint")
    encoded = encode_report(shards[0])

    def trace_file():
        trace.save(trace_path)
        ScheduleTrace.load(trace_path)

    def report_file():
        save_report(report_path, merged)
        load_campaign(report_path)

    def checkpoint_file():
        save_checkpoint(
            checkpoint_path, fingerprint=config_fingerprint(config),
            specs=list(config.portfolio_specs())[:2], completed=dict(enumerate(shards)),
        )
        load_checkpoint(checkpoint_path)

    out = {
        "config.json_roundtrip_us": _per_call_us(
            lambda: TestConfig.from_json(document), loops
        ),
        "engine.report_merge_us": _per_call_us(lambda: TestReport.merged(shards), loops),
        "engine.report_detach_us": _per_call_us(merged.detached, loops),
        "trace.fingerprint_us": _per_call_us(trace.fingerprint, loops),
        "trace.save_load_us": _per_call_us(trace_file, loops),
        "trace.bytes_per_step": len(trace.to_json()) / len(trace),
        "fleet.encode_report_us": _per_call_us(lambda: encode_report(shards[0]), loops),
        "fleet.decode_report_us": _per_call_us(lambda: decode_report(encoded), loops),
        "fleet.report_bytes": len(encoded),
        "checkpoint.save_load_ms": _per_call_us(checkpoint_file, max(1, loops // 10)) / 1e3,
        "reporting.save_load_ms": _per_call_us(report_file, max(1, loops // 10)) / 1e3,
        "reporting.report_bytes": os.path.getsize(report_path),
    }

    left, right = socket.socketpair()
    near = Connection.from_socket(left, "probe-near")
    far = Connection.from_socket(right, "probe-far")
    frame = {"type": "work", "shard": 1, "spec": {"name": "random", "params": {"seed": 1}}}

    def roundtrip():
        near.send(frame)
        far.send(far.recv(timeout=5.0))
        near.recv(timeout=5.0)

    try:
        out["fleet.frame_roundtrip_us"] = _per_call_us(roundtrip, loops)
    finally:
        near.close()
        far.close()

    stats = TelemetryStats()
    out["telemetry.record_iteration_ns"] = 1e3 * _per_call_us(
        lambda: stats.record_iteration(
            steps=80, scheduling_points=70, wall_seconds=3e-4, since_start=1.5,
            consulted=40,
        ),
        loops * 10,
    )
    with EventLog(os.path.join(scratch, "probe-events.jsonl")) as log:
        out["telemetry.emit_us_per_event"] = _per_call_us(
            lambda: log.emit("progress", iterations=10, buggy=0, steps=800), loops
        )
    return out


def hook_probes(sizes: Sizes) -> Dict[str, float]:
    """What each optional per-step hook adds to one scheduling step."""
    reps, schedules = sizes.probe_reps, sizes.probe_schedules
    raft = registry.get("Raft").buggy
    out: Dict[str, float] = {}

    record = _ns_per_step(reps, schedules, {
        "on": dict(program="Raft", record_traces=True),
        "off": dict(program="Raft", record_traces=False),
    })
    out["trace.record_ns_per_step"] = record["on"] - record["off"]

    coverage = _ns_per_step(reps, schedules, {
        "on": dict(program="Raft", coverage=True),
        "off": dict(program="Raft", coverage=False),
    })
    out["coverage.ns_per_step"] = coverage["on"] - coverage["off"]

    # Registry monitors against the bare machine class with none attached.
    monitors = _ns_per_step(reps, schedules, {
        "on": dict(program="Raft"),
        "off": dict(program=raft.main, payload=raft.payload, monitors=()),
    })
    out["monitors.ns_per_step"] = monitors["on"] - monitors["off"]
    covered = _soak("Raft", schedules, coverage=True)[0].coverage
    out["monitors.invocations"] = sum(
        sum(machine.transitions_taken.values()) + sum(machine.states_visited.values())
        for machine in covered.machines.values()
        if machine.is_monitor
    )

    faults = _ns_per_step(reps, schedules, {
        "on": dict(program="RaftLossy"),
        "off": dict(program="RaftLossy", faults=FaultConfig()),
    })
    out["faults.ns_per_step"] = faults["on"] - faults["off"]
    lossy = _soak("RaftLossy", schedules)[0]
    out["faults.injected_per_kstep"] = 1e3 * lossy.faults_injected / lossy.total_steps

    # The thread carrier: programs the inline compiler rejects resolve to
    # pooled threads under workers="auto"; CHESS-style scheduling needs
    # threads by construction.
    threads = []
    for program in OWN_PROGRAMS:
        report, wall = _soak(program, schedules, workers="auto")
        threads.append(1e9 * wall / report.total_steps)
    report, wall = _soak("BoundedAsync", max(2, schedules // 4), runtime_factory=ChessRuntime)
    threads.append(1e9 * wall / report.total_steps)
    out["runtime.threads_ns_per_step"] = statistics.mean(threads)
    return out


def run_probes(sizes: Sizes, scratch: str) -> Dict[str, float]:
    return {
        **process_probes(sizes),
        **codec_probes(sizes, scratch),
        **hook_probes(sizes),
    }
