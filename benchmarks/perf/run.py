"""One run of one workload: set up, repeat rounds for the measuring time,
check the outputs, aggregate.

Closed loop, one client: operations run back to back in this process
(the shard workloads block on exactly ``shard_workers`` worker
processes).  The round indices are ``0, 0, 1, 2, ...``: the repeated first
round is how a run proves that its schedule and step counts are a pure
function of the seed.  A traced run spends part of the time untraced and
the rest traced *on the same rounds*, so it can report the tracing
overhead and check that tracing changes no count.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from . import PACKAGE_DIR, checked_child
from .hostclock import HOST
from .metrics import END_TO_END_NAMES, PER_LAYER_NAMES, STRATEGIES, with_units
from .probes import run_probes
from .stats import geomean, median_by, percentile
from .tracing import Tracer, execute_totals
from .workloads import FULL, WORKLOADS, Op, Sizes, Workload

OUT_DIR = os.path.join(PACKAGE_DIR, "out")

#: share of a traced run's measuring time spent untraced
UNTRACED_SHARE = 0.4


def run_rounds(
    workload: Workload, seconds: float, tracer: Optional[Tracer], at_most: Optional[int] = None
) -> List[List[Op]]:
    """Rounds ``0, 0, 1, 2, ...`` until ``seconds`` have passed (always
    the first two; no more than ``at_most``)."""
    rounds: List[List[Op]] = []
    deadline = time.perf_counter() + seconds
    for index in itertools.chain([0], itertools.count()):
        if len(rounds) >= 2 and time.perf_counter() >= deadline:
            break
        if at_most is not None and len(rounds) >= at_most:
            break
        gc.collect()  # untimed: garbage of one round is not charged to the next
        ops = workload.round(index, tracer)
        if rounds:
            # Only the first round's reports are looked at again; holding
            # every round's would make memory grow with the host's speed.
            for op in ops:
                op.detail = None
        rounds.append(ops)
    return rounds


def count_mismatches(a: Sequence[Op], b: Sequence[Op]) -> List[str]:
    """Operations whose exact counts differ between two equal rounds."""
    if len(a) != len(b):
        return [f"{len(a)} operations against {len(b)}"]
    return [
        f"{x.kind}: {x.counts()[1:]} against {y.counts()[1:]}"
        for x, y in zip(a, b)
        if x.counts() != y.counts()
    ]


@contextmanager
def scratch_dir(out_dir: str) -> Iterator[str]:
    """A directory of this process's own under ``out_dir``, removed on exit."""
    path = os.path.join(out_dir, f"scratch-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def set_up(name: str, seed: int, sizes: Sizes, scratch: str) -> Workload:
    """Build the workload's inputs and warm every program up."""
    workload = WORKLOADS[name](seed, sizes, scratch)
    workload.warm_up()
    return workload


def measure_setup(name: str, seed: int, sizes: Sizes) -> List[Tuple[float, float]]:
    """``(spawn-to-exit seconds, host slowdown)`` of fresh interpreters
    that import, load the registry and :func:`set_up` (``--setup-only``).
    The child samples the host itself (this process waits on another
    core, or none) and its sampling time is taken off."""
    command = [sys.executable, "-m", "benchmarks.perf", "--setup-only",
               "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(sizes.setup_children):
        out, seconds = checked_child(command)
        child = json.loads(out.splitlines()[-1])
        times.append((seconds - child["sampling_s"], child["host_slowdown"]))
    return times


def kind_geomean(pairs) -> float:
    """Per operation kind the median of its values, then the geometric
    mean over kinds."""
    return geomean(median_by(pairs).values())


def end_to_end(ops: Sequence[Op], setup: Sequence[Tuple[float, float]]) -> Dict[str, float]:
    """Timings in seconds of the reference host (``hostclock``)."""
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": statistics.median(seconds / slow for seconds, slow in setup),
        "op_wall_s": kind_geomean((op.kind, op.wall_ref) for op in ops),
        "op_cpu_s": kind_geomean((op.kind, op.cpu_ref) for op in ops),
        "work_per_s": kind_geomean((op.kind, op.work / op.wall_ref) for op in ops if op.work),
        "peak_rss_mb": max(usage, children) / 1024.0,
    }


def span_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics that are sums over spans (0 where none)."""
    out: Dict[str, float] = {}
    campaigns = [s for s in tracer.named("campaign") if "strategy" in s.attrs]
    runs = tracer.total_ns("campaign.run")
    executes = execute_totals(tracer.spans)
    builds = tracer.total_ns("runtime.build") + tracer.total_ns("runtime.close")
    resolves = tracer.named("config.resolve")
    schedules = sum(s.attrs["schedules"] for s in campaigns)
    if campaigns:
        out["engine.campaigns"] = len(campaigns)
        out["engine.campaign_overhead_us"] = (runs - executes["ns"]) / 1e3 / len(campaigns)
        out["runtime.build_us"] = builds / 1e3 / len(campaigns)
        out["config.resolve_us"] = sum(s.ns for s in resolves) / 1e3 / len(resolves)
    if schedules:
        out["engine.loop_ns_per_schedule"] = (runs - executes["ns"]) / schedules
    out["runtime.execute_calls"] = executes["calls"]
    out["runtime.execute_s"] = executes["ns"] / 1e9
    out["runtime.steps"] = executes["steps"]
    if executes["steps"]:
        out["runtime.self_ns_per_step"] = (
            executes["ns"] - executes["consult_ns"]
        ) / executes["steps"]
    by_campaign: Dict[int, Dict[str, int]] = {}
    for span in tracer.named("runtime.execute"):
        if span.attrs is None:
            continue
        totals = by_campaign.setdefault(span.campaign, dict.fromkeys(
            ("consults", "consult_ns", "forced"), 0))
        for key in totals:
            totals[key] += span.attrs[key]
    for name in STRATEGIES:
        mine = [s for s in campaigns if s.attrs["strategy"] == name]
        if not mine:
            continue
        sums = [by_campaign.get(s.campaign, {}) for s in mine]
        consults = sum(t.get("consults", 0) for t in sums)
        prepares = sum(s.attrs["prepares"] for s in mine)
        out[f"strategies.{name}.consult_calls"] = consults
        out[f"strategies.{name}.forced_calls"] = sum(t.get("forced", 0) for t in sums)
        if consults:
            out[f"strategies.{name}.consult_ns_per_call"] = (
                sum(t.get("consult_ns", 0) for t in sums) / consults
            )
        if prepares:
            out[f"strategies.{name}.prepare_us_per_iteration"] = (
                sum(s.attrs["prepare_ns"] for s in mine) / 1e3 / prepares
            )
    return out


def bench_metrics(rounds: Sequence[Sequence[Op]], overhead: float) -> Dict[str, float]:
    ops = [op for round_ in rounds for op in round_]
    wall = sum(op.wall for op in ops)
    return {
        "bench.rounds": len(rounds),
        "bench.schedules_per_round": sum(op.schedules for op in rounds[0]),
        "bench.steps_per_round": sum(op.steps for op in rounds[0]),
        "bench.schedules_per_s": sum(op.schedules for op in ops) / wall,
        "bench.steps_per_s": sum(op.steps for op in ops) / wall,
        "bench.op_wall_s_p95": percentile([op.wall for op in ops], 0.95),
        "bench.op_wall_raw_s": kind_geomean((op.kind, op.wall) for op in ops),
        "bench.host_slowdown": statistics.median(wall for wall, _ in HOST.samples),
        "bench.host_samples": len(HOST.samples),
        "bench.tracing_overhead_ratio": overhead,
    }


def run_once(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    sizes: Sizes = FULL,
    out_dir: str = OUT_DIR,
    probe_values: Optional[Dict[str, float]] = None,
) -> Dict[str, Any]:
    """Measure workload ``name`` once; the result object the command
    prints, plus ``counts``/``notes``/``detail`` for the callers that keep
    more than the last line."""
    with scratch_dir(out_dir) as scratch:
        notes: List[str] = []
        setup: List[Tuple[float, float]] = []
        if not trace:
            setup = measure_setup(name, seed, sizes)
        start = time.perf_counter()
        workload = set_up(name, seed, sizes, scratch)
        if not setup:
            # Smoke and traced runs: no fresh interpreters; the in-process
            # figure (no interpreter start, modules already imported).
            setup = [(time.perf_counter() - start, HOST.sample()[0])]

        rounds = run_rounds(workload, seconds * (UNTRACED_SHARE if trace else 1.0), None)
        mismatches = count_mismatches(rounds[0], rounds[1])
        notes += [f"counts differ between equal rounds: {m}" for m in mismatches]
        checks = workload.check(rounds[0])
        untraced_ops = [op for round_ in rounds for op in round_]

        tracer = None
        traced_rounds: List[List[Op]] = []
        if trace:
            tracer = Tracer()
            with tracer.span("workload", workload=name):
                traced_rounds = run_rounds(
                    workload, seconds * (1.0 - UNTRACED_SHARE), tracer, at_most=len(rounds)
                )
            for plain, traced in zip(rounds, traced_rounds):
                differing = count_mismatches(plain, traced)
                mismatches += differing
                notes += [f"counts differ traced against untraced: {m}" for m in differing]
        traced_ops = [op for round_ in traced_rounds for op in round_]

        verdicts = untraced_ops + traced_ops + checks
        failures = [op for op in verdicts if not op.ok]
        notes += [f"{op.kind}: {op.note}" for op in failures]
        result: Dict[str, Any] = {
            "correct": not failures and not mismatches,
            "attempted": len(verdicts),
            "failed": len(failures),
        }

        if not trace:
            values = end_to_end(untraced_ops, setup)
            result["metrics"] = with_units(values, END_TO_END_NAMES)
        else:
            shared = [op for round_ in rounds[: len(traced_rounds)] for op in round_]
            overhead = (
                kind_geomean((op.kind, op.wall_ref) for op in traced_ops)
                / kind_geomean((op.kind, op.wall_ref) for op in shared)
            )
            values = {
                **(probe_values if probe_values is not None else run_probes(sizes, scratch)),
                **span_metrics(tracer),
                **workload.layer_metrics(tracer, untraced_ops, traced_ops, checks),
                **bench_metrics(rounds, overhead),
            }
            result["metrics"] = with_units(values, PER_LAYER_NAMES)
            tracer.dump(
                os.path.join(out_dir, f"trace-{name}.json"),
                {"workload": name, "seed": seed, "rounds": len(traced_rounds)},
            )
        result["counts"] = [list(op.counts()) for op in rounds[0]]
        result["raw"] = {
            "setup": setup,
            "op_wall_s": kind_geomean((op.kind, op.wall) for op in untraced_ops),
            "op_cpu_s": kind_geomean((op.kind, op.cpu) for op in untraced_ops),
            "host_slowdown": statistics.median(wall for wall, _ in HOST.samples),
            "host_samples": len(HOST.samples),
        }
        result["rounds"] = len(rounds)
        result["notes"] = notes
        result["detail"] = workload.detail(rounds[0], checks)
        return result
