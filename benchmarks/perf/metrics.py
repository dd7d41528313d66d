"""The benchmark's names: metrics with unit, direction and bound, and the
manifest (``BENCHMARK.json``) built from them.

Every workload reports every metric.  End-to-end metrics aggregate the
same way on every workload — per operation *kind* the median over its
samples, then the geometric mean over kinds — so that one slow program or
one unlucky seed cannot carry a run.  Per-layer metrics read 0 on a
workload that never enters the layer.
"""

from __future__ import annotations

from typing import Any, Dict, List

from .workloads import WORKLOADS

PATH = "benchmarks/perf"
COMMAND = ["python3", "-m", "benchmarks.perf"]
RUN_SECONDS = 12

#: name, unit, better, bound (share of the parent's median).  Timings are
#: in seconds of the reference host (``hostclock``): on the shared 2-vCPU
#: host the constants were sized on, fixed work reads up to 1.8x slower for
#: a fraction of a second to minutes at a time, so each timing is divided
#: by the slowdown of a fixed reference sampled next to it.  The bounds
#: stay the widest allowed: the correction is first-order.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("op_wall_s", "s", "lower", 0.25),
    ("op_cpu_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.20),
)

STRATEGIES = ("random", "fair-random", "pct", "delay-bounding", "dfs")

#: name, unit, better.  Order: by layer (module), then the benchmark itself.
PER_LAYER = (
    ("core.import_s", "s", "lower"),
    ("core.first_run_penalty_ms", "ms", "lower"),
    ("core.inline_compatible_share", "ratio", "higher"),
    ("registry.load_ms", "ms", "lower"),
    ("cli.python_floor_s", "s", "lower"),
    ("cli.import_share", "ratio", "lower"),
    ("config.resolve_us", "us", "lower"),
    ("config.json_roundtrip_us", "us", "lower"),
    ("engine.campaigns", "count", "lower"),
    ("engine.campaign_overhead_us", "us", "lower"),
    ("engine.loop_ns_per_schedule", "ns", "lower"),
    ("engine.report_merge_us", "us", "lower"),
    ("engine.report_detach_us", "us", "lower"),
    ("engine.replay_ms", "ms", "lower"),
    ("engine.replay_ok_share", "ratio", "higher"),
    ("runtime.execute_calls", "count", "lower"),
    ("runtime.execute_s", "s", "lower"),
    ("runtime.steps", "count", "lower"),
    ("runtime.self_ns_per_step", "ns", "lower"),
    ("runtime.build_us", "us", "lower"),
    ("runtime.threads_ns_per_step", "ns", "lower"),
    *(
        (f"strategies.{name}.{metric}", unit, "lower")
        for name in STRATEGIES
        for metric, unit in (
            ("consult_calls", "count"),
            ("forced_calls", "count"),
            ("consult_ns_per_call", "ns"),
            ("prepare_us_per_iteration", "us"),
        )
    ),
    ("trace.record_ns_per_step", "ns", "lower"),
    ("trace.fingerprint_us", "us", "lower"),
    ("trace.save_load_us", "us", "lower"),
    ("trace.bytes_per_step", "B", "lower"),
    ("monitors.ns_per_step", "ns", "lower"),
    ("monitors.invocations", "count", "lower"),
    ("faults.ns_per_step", "ns", "lower"),
    ("faults.injected_per_kstep", "count", "higher"),
    ("coverage.ns_per_step", "ns", "lower"),
    ("telemetry.record_iteration_ns", "ns", "lower"),
    ("telemetry.emit_us_per_event", "us", "lower"),
    ("reduction.dpor_ns_per_step", "ns", "lower"),
    ("reduction.cache_ns_per_step", "ns", "lower"),
    ("reduction.clauses_ns_per_step", "ns", "lower"),
    ("reduction.schedules_ratio_dpor", "ratio", "lower"),
    ("reduction.schedules_ratio_cache", "ratio", "lower"),
    ("reduction.schedules_ratio_clauses", "ratio", "lower"),
    ("reduction.distinct_states", "count", "lower"),
    ("reduction.schedules_pruned", "count", "higher"),
    ("reduction.bug_recall_dpor", "ratio", "higher"),
    ("reduction.bug_recall_cache", "ratio", "higher"),
    ("reduction.bug_recall_clauses", "ratio", "higher"),
    ("portfolio.wall_s", "s", "lower"),
    ("portfolio.overhead_s", "s", "lower"),
    ("portfolio.contention_ratio", "ratio", "lower"),
    ("portfolio.parallel_efficiency", "ratio", "higher"),
    ("fleet.wall_s", "s", "lower"),
    ("fleet.per_shard_overhead_ms", "ms", "lower"),
    ("fleet.spawn_to_first_result_s", "s", "lower"),
    ("fleet.encode_report_us", "us", "lower"),
    ("fleet.decode_report_us", "us", "lower"),
    ("fleet.report_bytes", "B", "lower"),
    ("fleet.frame_roundtrip_us", "us", "lower"),
    ("fleet.requeues", "count", "lower"),
    ("fleet.respawns", "count", "lower"),
    ("fleet.parallel_efficiency", "ratio", "higher"),
    ("checkpoint.save_load_ms", "ms", "lower"),
    ("reporting.save_load_ms", "ms", "lower"),
    ("reporting.report_bytes", "B", "lower"),
    ("analysis.lower_s", "s", "lower"),
    ("analysis.base_s", "s", "lower"),
    ("analysis.xsa_s", "s", "lower"),
    ("analysis.readonly_s", "s", "lower"),
    ("analysis.violations_base", "count", "lower"),
    ("analysis.fp_after_xsa", "count", "lower"),
    ("analysis.seeded_races_found_share", "ratio", "higher"),
    ("hunt.first_bug_s_p95", "s", "lower"),
    ("hunt.cli_first_bug_s", "s", "lower"),
    ("hunt.schedules_to_first_bug_geomean", "count", "lower"),
    ("bench.rounds", "count", "higher"),
    ("bench.schedules_per_round", "count", "lower"),
    ("bench.steps_per_round", "count", "lower"),
    ("bench.schedules_per_s", "1/s", "higher"),
    ("bench.steps_per_s", "1/s", "higher"),
    ("bench.op_wall_s_p95", "s", "lower"),
    ("bench.op_wall_raw_s", "s", "lower"),
    ("bench.host_slowdown", "ratio", "lower"),
    ("bench.host_samples", "count", "lower"),
    ("bench.tracing_overhead_ratio", "ratio", "lower"),
)

END_TO_END_NAMES = tuple(entry[0] for entry in END_TO_END)
PER_LAYER_NAMES = tuple(entry[0] for entry in PER_LAYER)
UNITS = {entry[0]: entry[1] for entry in (*END_TO_END, *PER_LAYER)}
BETTER = {entry[0]: entry[2] for entry in (*END_TO_END, *PER_LAYER)}
BOUNDS = {name: bound for name, _, _, bound in END_TO_END}


def manifest() -> Dict[str, Any]:
    """``BENCHMARK.json``, exactly the keys the driver reads."""
    return {
        "command": COMMAND,
        "paths": [PATH],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": cls.why} for name, cls in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def with_units(values: Dict[str, float], names: List[str]) -> Dict[str, Dict[str, Any]]:
    """``{name: {"value", "unit"}}`` for exactly ``names`` (0 where a
    workload did not produce the metric)."""
    return {
        name: {"value": values.get(name, 0), "unit": UNITS[name]} for name in names
    }
