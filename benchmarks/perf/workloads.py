"""The seven workloads: inputs from a seed, one *round* of operations at a
time, and the verdict on every operation's output.

A round is a fixed list of operations whose inputs are a pure function of
``(seed, round index)``; the runner repeats rounds until the measuring
time is spent and aggregates per operation *kind*.  No ``time_limit``
decides an outcome — budgets are schedule counts and DFS runs to
exhaustion — so the schedule and step counts of a round repeat exactly.

Everything goes through public entry points: ``TestConfig`` /
``Campaign.run/portfolio/replay``, ``run_fleet``, ``lower_machines`` /
``analyze_program`` and the ``python -m repro test`` command line.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import analyze_program
from repro.analysis.frontend import lower_machines
from repro.bench import registry
from repro.testing import Campaign, StrategySpec, TestConfig, run_fleet

from . import run_child
from .hostclock import HOST
from .stats import geomean, median_by, percentile
from .tracing import TimedRuntime, TimedStrategy, Tracer, span_if

REDUCTION_ARMS = ("none", "dpor", "dpor+state-cache", "dpor+state-cache+clauses")
ARM_LABEL = {
    "none": "none",
    "dpor": "dpor",
    "dpor+state-cache": "cache",
    "dpor+state-cache+clauses": "clauses",
}

#: Reference bugs that a reduced arm misses on the commit this benchmark
#: was defined on (depth bound x reduction, ROADMAP item 3).  They are
#: pinned, not hidden: the gap reads as ``reduction.bug_recall_*`` < 1 and
#: in the result's ``detail.recall`` without failing an operation, while a
#: loss beyond them, or a bug the unreduced arm does not have, is a wrong
#: output.  An arm that stops missing one of these passes.
_GERMAN_D8 = (
    ("assertion-failure",
     "Client1: exclusive access granted while another client holds access"),
    ("assertion-failure",
     "Client2: exclusive access granted while another client holds access"),
    ("unhandled-event",
     "machine BuggyHost0 in state 'Sharing' cannot handle event EInvAck"),
)
KNOWN_MISSES = {
    ("German:d8", "dpor"): frozenset(_GERMAN_D8[:1]),
    ("German:d8", "cache"): frozenset(_GERMAN_D8),
    ("German:d8", "clauses"): frozenset(_GERMAN_D8),
}


@dataclass(frozen=True)
class Sizes:
    """Every constant that sizes the load (stamped into result files)."""

    setup_children: int = 5
    hunt_programs: Optional[Tuple[str, ...]] = None  # None: every buggy variant
    hunt_seeds: int = 8
    hunt_budget: int = 10_000
    hunt_cli_runs: int = 1
    soak_schedules: int = 150
    soak_max_steps: int = 5_000
    # (program, strategy, schedules per round)
    hooks: Tuple[Tuple[str, str, int], ...] = (
        ("RaftLossy", "random", 100),
        ("TwoPhaseCommitCrash", "random", 200),
        ("ProcessScheduler", "fair-random", 8),
        ("TokenRing", "fair-random", 20),
        ("Raft", "pct,depth=3", 100),
        ("TwoPhaseCommit", "delay-bounding,delays=2", 200),
    )
    # Timed sweep arms: (program, dfs depth, max_steps, arms).
    sweep_timed: Tuple[Tuple[str, int, int, Tuple[str, ...]], ...] = (
        ("BoundedAsync", 6, 2_000, ("none",)),
        ("German", 6, 2_000, ("none",)),
        ("BoundedAsync", 8, 2_000, REDUCTION_ARMS[1:]),
        ("TwoPhaseCommit", 8, 2_000, REDUCTION_ARMS[1:]),
        ("TokenRing", 7, 200, REDUCTION_ARMS[1:]),
        ("German", 8, 2_000, REDUCTION_ARMS[1:]),
        ("BoundedAsync", 16, 2_000, REDUCTION_ARMS[2:]),
        ("German", 12, 2_000, REDUCTION_ARMS[2:3]),
    )
    # Recall reference: the unreduced arm of these cases runs once, in
    # the check phase, and every reduced arm of the same case is held
    # against its distinct-bug set.
    sweep_reference: Tuple[Tuple[str, int, int], ...] = (
        ("BoundedAsync", 8, 2_000),
        ("TwoPhaseCommit", 8, 2_000),
        ("TokenRing", 7, 200),
        ("German", 8, 2_000),
    )
    shard_program: str = "Raft"
    shard_workers: int = 2
    shard_large_schedules: int = 1_000
    shard_small_shards: int = 300
    shard_small_schedules: int = 5
    analyze_programs: Optional[Tuple[str, ...]] = None  # None: all three suites
    probe_schedules: int = 100
    probe_reps: int = 3
    probe_loops: int = 200


FULL = Sizes()

SMOKE = Sizes(
    setup_children=0,
    hunt_programs=("AsyncSystem", "ChainReplication", "Chord", "RaftLossy", "German"),
    hunt_seeds=1,
    soak_schedules=8,
    hooks=(
        ("RaftLossy", "random", 6),
        ("TokenRing", "fair-random", 2),
        ("Raft", "pct,depth=3", 6),
        ("TwoPhaseCommit", "delay-bounding,delays=2", 6),
    ),
    sweep_timed=(
        ("German", 4, 2_000, ("none",)),
        ("BoundedAsync", 5, 2_000, REDUCTION_ARMS[1:]),
        ("German", 5, 2_000, REDUCTION_ARMS[1:]),
    ),
    sweep_reference=(("BoundedAsync", 5, 2_000), ("German", 5, 2_000)),
    shard_large_schedules=12,
    shard_small_shards=6,
    shard_small_schedules=2,
    analyze_programs=("BoundedAsync", "Pi", "Chameneos"),
    probe_schedules=6,
    probe_reps=1,
    probe_loops=5,
)


def derive(seed: int, *labels: Any) -> int:
    """A campaign/spec seed that is a pure function of the run seed and
    the labels (string seeding hashes with SHA-512: stable across runs)."""
    text = ":".join(str(part) for part in (seed, *labels))
    return random.Random(text).randrange(2**31)


#: what ``hunt`` derives its fixed campaign seeds from (see ``Hunt``)
HUNT_POOL = 2015


def cpu_seconds() -> float:
    """CPU time of this process plus every child it has reaped."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


@dataclass
class Op:
    """One operation: what a user waited for, and whether it was right."""

    kind: str
    wall: float
    cpu: float
    host: Tuple[float, float]  # how much slower than the reference host: (wall, cpu)
    schedules: int = 0
    steps: int = 0
    work: int = 0  # throughput numerator (steps; source lines on analyze)
    ok: bool = True
    note: str = ""
    exact: Tuple[int, ...] = ()  # further counts that must repeat exactly
    detail: Any = field(default=None, repr=False, compare=False)

    def counts(self) -> Tuple[Any, ...]:
        return (self.kind, self.schedules, self.steps, *self.exact)

    @property
    def wall_ref(self) -> float:
        """Wall seconds on the reference host (see ``hostclock``)."""
        return self.wall / self.host[0]

    @property
    def cpu_ref(self) -> float:
        return self.cpu / self.host[1]


def measure(fn: Callable[[], Any]) -> Tuple[Any, float, float, Tuple[float, float]]:
    """``(value, wall, cpu, host slowdown)`` of ``fn()``; the host's speed
    is sampled before it and, if it ran long, after it, outside the timing."""

    def with_cpu():
        cpu0 = cpu_seconds()
        value = fn()
        return value, cpu_seconds() - cpu0

    (value, cpu), wall, host = HOST.around(with_cpu)
    return value, wall, cpu, host


def bug_set(report: Any) -> frozenset:
    return frozenset((bug.kind, str(bug.message)) for bug in report.bugs)


def fingerprints(report: Any) -> frozenset:
    return frozenset(
        bug.trace.fingerprint() for bug in report.bugs if bug.trace is not None
    )


def run_campaign(
    kwargs: Dict[str, Any], tracer: Optional[Tracer], kind: str
) -> Tuple[Campaign, Any, Tuple[float, float, Tuple[float, float]]]:
    """Build a config from ``kwargs`` and run it: ``(campaign, report,
    (wall, cpu, host))``.  Config construction is inside the timed span (it is
    part of what a user waits for).  Traced, the strategy rides behind a
    :class:`TimedStrategy` and the runtime is the timed subclass."""
    if tracer is None:

        def untraced():
            campaign = Campaign(TestConfig(**kwargs))
            return campaign, campaign.run()

        (campaign, report), *cost = measure(untraced)
        return campaign, report, cost

    def traced():
        with tracer.campaign_span(kind) as span:
            with tracer.span("config.resolve"):
                config = TestConfig(runtime_factory=TimedRuntime, **kwargs)
                config.resolve_program()
                config.resolved_faults()
                strategy = TimedStrategy(config.build_strategy(), tracer)
            campaign = Campaign(config, strategy=strategy)
            with tracer.span("campaign.run"):
                report = campaign.run()
            span.attrs.update(
                strategy=strategy.name,
                schedules=report.iterations,
                prepares=strategy.prepares,
                prepare_ns=strategy.prepare_ns,
            )
        return campaign, report

    (campaign, report), *cost = measure(traced)
    return campaign, report, cost


class Workload:
    """Base class: subclasses build inputs in ``__init__`` from the seed."""

    name = ""
    why = ""

    def __init__(self, seed: int, sizes: Sizes, scratch: str) -> None:
        self.seed = seed
        self.sizes = sizes
        self.scratch = scratch

    def warm_up(self) -> None:
        """Run once what a first campaign per program pays for (registry
        load, inline compile, dispatch tables)."""
        raise NotImplementedError

    def round(self, index: int, tracer: Optional[Tracer]) -> List[Op]:
        raise NotImplementedError

    def check(self, first_round: Sequence[Op]) -> List[Op]:
        """Untraced reference operations held against ``first_round``."""
        return []

    def detail(self, first_round: Sequence[Op], checks: Sequence[Op]) -> Dict[str, Any]:
        """What a result block records beyond the numbers."""
        return {}

    def layer_metrics(
        self,
        tracer: Tracer,
        untraced: Sequence[Op],
        traced: Sequence[Op],
        checks: Sequence[Op],
    ) -> Dict[str, float]:
        """Workload-specific per-layer metrics of a traced run: ratios of
        timings come from the ``untraced`` operations (first round first),
        span sums from the ``tracer``."""
        return {}


def warm(program: str, **overrides: Any) -> None:
    """A two-schedule campaign: pays the first-run costs of ``program``."""
    kwargs = dict(program=program, seed=0, max_iterations=2, time_limit=None,
                  stop_on_first_bug=False)
    kwargs.update(overrides)
    Campaign(TestConfig(**kwargs)).run()


# ----------------------------------------------------------------------
class Hunt(Workload):
    name = "hunt"
    why = (
        "time to first bug of the default campaign on every registry bug, plus a "
        "cold CLI run: per-campaign fixed cost and import dominate, the step loop "
        "does little"
    )

    def __init__(self, seed: int, sizes: Sizes, scratch: str) -> None:
        super().__init__(seed, sizes, scratch)
        self.programs = list(
            sizes.hunt_programs
            or [b.name for b in registry.all_benchmarks() if b.buggy is not None]
        )
        # Schedules-to-first-bug is geometric, and on 10 of 13 programs its
        # median sits between two small integers: with campaign seeds drawn
        # from the run seed, the inputs alone moved op_wall_s by 5-9 % from
        # one run seed to the next (bootstrap over 300 campaigns per
        # program).  So (program, slot) decides the campaign seed, the same
        # campaigns run in every round of every run -- which makes every
        # schedule count of the workload exact -- and the run seed decides
        # the order, afresh each round.
        self.campaigns = [
            (program, derive(HUNT_POOL, program, slot))
            for program in self.programs
            for slot in range(sizes.hunt_seeds)
        ]

    def warm_up(self) -> None:
        for program in self.programs:
            warm(program)

    def round(self, index: int, tracer: Optional[Tracer]) -> List[Op]:
        order = list(self.campaigns)
        random.Random(derive(self.seed, "hunt-order", index)).shuffle(order)
        ops = [self._hunt(program, seed, tracer) for program, seed in order]
        for slot in range(self.sizes.hunt_cli_runs):
            ops.append(self._cli(derive(HUNT_POOL, "cli", slot) % 1000, tracer))
        return ops

    def _hunt(self, program: str, seed: int, tracer: Optional[Tracer]) -> Op:
        kwargs = dict(
            program=program, seed=seed,
            max_iterations=self.sizes.hunt_budget, time_limit=None,
        )
        campaign, report, cost = run_campaign(kwargs, tracer, f"hunt:{program}")
        op = Op(
            f"hunt:{program}", *cost,
            schedules=report.iterations, steps=report.total_steps,
            work=report.total_steps,
        )
        if report.first_bug is None:
            op.ok, op.note = False, f"no bug within {self.sizes.hunt_budget} schedules (seed {seed})"
            return op
        # Opened after the campaign span closed, but no campaign has
        # started since: the replay carries the same campaign id.
        with span_if(tracer, "campaign.replay"):
            result = campaign.replay()
        found = report.first_bug
        if not (
            result is not None and result.buggy
            and (result.bug.kind, str(result.bug.message)) == (found.kind, str(found.message))
        ):
            op.ok, op.note = False, f"replay did not reproduce the bug (seed {seed})"
        return op

    def _cli(self, seed: int, tracer: Optional[Tracer]) -> Op:
        command = [sys.executable, "-m", "repro", "test", "ChainReplication",
                   "--seed", str(seed)]

        def spawn():
            code, out, err, _ = run_child(command)
            return "" if code == 0 and "\nbug: " in out else f"exit {code}: {err[-200:]}"

        with span_if(tracer, "cli"):
            note, *cost = measure(spawn)
        return Op("cli:ChainReplication", *cost, ok=not note, note=note)

    def layer_metrics(self, tracer, untraced, traced, checks):
        hunts = [op for op in untraced if op.kind.startswith("hunt:")]
        clis = [op.wall for op in untraced if op.kind.startswith("cli:")]
        replays = tracer.named("campaign.replay")
        replayed = [op for op in traced if op.kind.startswith("hunt:")]
        return {
            "hunt.first_bug_s_p95": percentile([op.wall for op in hunts], 0.95),
            "hunt.schedules_to_first_bug_geomean": geomean(
                median_by((op.kind, op.schedules) for op in hunts).values()
            ),
            "hunt.cli_first_bug_s": statistics.median(clis) if clis else 0.0,
            "engine.replay_ms": (
                sum(s.ns for s in replays) / len(replays) / 1e6 if replays else 0.0
            ),
            "engine.replay_ok_share": sum(op.ok for op in replayed) / len(replayed),
        }


# ----------------------------------------------------------------------
class Soak(Workload):
    name = "soak"
    why = (
        "long fixed-budget random campaigns on the 8 Table-2 programs, no optional "
        "hooks: the runtime step loop and core dispatch do nearly all the work"
    )

    def __init__(self, seed: int, sizes: Sizes, scratch: str) -> None:
        super().__init__(seed, sizes, scratch)
        self.programs = [b.name for b in registry.table2_suite()]

    def configs(self, index: int) -> List[Tuple[str, Dict[str, Any]]]:
        return [
            (
                f"soak:{program}",
                dict(
                    program=program, strategy="random",
                    seed=derive(self.seed, program, index),
                    max_iterations=self.sizes.soak_schedules, time_limit=None,
                    max_steps=self.sizes.soak_max_steps, stop_on_first_bug=False,
                ),
            )
            for program in self.programs
        ]

    def warm_up(self) -> None:
        for _, kwargs in self.configs(0):
            Campaign(TestConfig(**dict(kwargs, max_iterations=2))).run()

    def round(self, index: int, tracer: Optional[Tracer]) -> List[Op]:
        ops = []
        for kind, kwargs in self.configs(index):
            _, report, cost = run_campaign(kwargs, tracer, kind)
            op = Op(kind, *cost, schedules=report.iterations,
                    steps=report.total_steps, work=report.total_steps)
            if report.iterations != kwargs["max_iterations"]:
                op.ok = False
                op.note = f"ran {report.iterations} of {kwargs['max_iterations']} schedules"
            elif kwargs.get("coverage") and not report.coverage:
                op.ok, op.note = False, "no coverage map on the report"
            ops.append(op)
        return ops


class SoakHooks(Soak):
    name = "soak_hooks"
    why = (
        "the same step loop with every per-step hook on (faults, monitors, coverage, "
        "event log) under pct, delay-bounding and fair-random: a bare-loop gain paid "
        "for in the hooks shows here"
    )

    def configs(self, index: int) -> List[Tuple[str, Dict[str, Any]]]:
        events = os.path.join(self.scratch, "events.jsonl")
        if os.path.exists(events):
            os.unlink(events)  # the log is append-only: bound it per round
        return [
            (
                f"hooks:{program}:{strategy.partition(',')[0]}",
                dict(
                    program=program, strategy=strategy,
                    seed=derive(self.seed, program, index),
                    max_iterations=schedules, time_limit=None,
                    max_steps=self.sizes.soak_max_steps, stop_on_first_bug=False,
                    coverage=True, events_path=events,
                ),
            )
            for program, strategy, schedules in self.sizes.hooks
        ]


# ----------------------------------------------------------------------
class Sweep(Workload):
    name = "sweep"
    why = (
        "exhaustive DFS to exhaustion under each reduction mode: DFS frames, "
        "backtrack sets, fingerprints, sleep sets and the state cache do most of "
        "the work; the unreduced arm is the recall reference"
    )

    def __init__(self, seed: int, sizes: Sizes, scratch: str) -> None:
        super().__init__(seed, sizes, scratch)
        arms = [
            (program, depth, max_steps, arm)
            for program, depth, max_steps, case_arms in sizes.sweep_timed
            for arm in case_arms
        ]
        # DFS has no seed in it; the run seed decides the order of arms.
        random.Random(derive(seed, "sweep-order")).shuffle(arms)
        self.arms = arms

    def warm_up(self) -> None:
        for program in sorted({arm[0] for arm in self.arms}):
            warm(program, strategy=("dfs", {"max_depth": 3}), workers="inline",
                 reduction=REDUCTION_ARMS[-1])

    def _arm(self, program, depth, max_steps, arm, tracer) -> Op:
        kind = f"{ARM_LABEL[arm]}:{program}:d{depth}"
        kwargs = dict(
            program=program, strategy=("dfs", {"max_depth": depth}),
            max_iterations=1_000_000, time_limit=None, max_steps=max_steps,
            stop_on_first_bug=False, workers="inline", reduction=arm,
        )
        _, report, cost = run_campaign(kwargs, tracer, kind)
        op = Op(kind, *cost, schedules=report.iterations,
                steps=report.total_steps, work=report.total_steps,
                exact=(report.distinct_states, report.schedules_pruned, len(report.bugs)),
                detail={"bugs": bug_set(report), "states": report.distinct_states,
                        "pruned": report.schedules_pruned})
        if not report.exhausted:
            op.ok, op.note = False, "DFS did not exhaust"
        return op

    def round(self, index: int, tracer: Optional[Tracer]) -> List[Op]:
        ops = []
        for arm in self.arms:
            # Untimed.  An arm is a campaign of its own; with the previous
            # arms' garbage still around, peak_rss_mb followed the order of
            # the arms (43-48 MB from one run seed to the next).
            gc.collect()
            ops.append(self._arm(*arm, tracer))
        return ops

    def check(self, first_round: Sequence[Op]) -> List[Op]:
        """Run the unreduced reference arms once.  A reduced arm's
        distinct-bug set must equal its reference's, less the misses
        pinned in ``KNOWN_MISSES``: inventing a bug or losing a further one
        fails the arm."""
        reduced = {op.kind: op for op in first_round}
        checks = []
        for program, depth, max_steps in self.sizes.sweep_reference:
            ref = self._arm(program, depth, max_steps, "none", None)
            case = f"{program}:d{depth}"
            for label in ("dpor", "cache", "clauses"):
                op = reduced.get(f"{label}:{case}")
                if op is None:
                    continue
                invented = op.detail["bugs"] - ref.detail["bugs"]
                lost = (ref.detail["bugs"] - op.detail["bugs"]
                        - KNOWN_MISSES.get((case, label), frozenset()))
                if invented or lost:
                    op.ok = False
                    op.note = (f"bug set differs from the unreduced arm's: invents "
                               f"{sorted(invented)}, newly misses {sorted(lost)}")
            checks.append(ref)
        return checks

    @staticmethod
    def recall_cases(ops: Sequence[Op], checks: Sequence[Op]) -> Dict[str, Dict[str, Op]]:
        """Per reference case, the operation of each arm (``none`` first)."""
        by_kind = {op.kind: op for op in ops}
        cases = {}
        for ref in checks:
            case = ref.kind.partition(":")[2]
            arms = {"none": ref}
            for label in ("dpor", "cache", "clauses"):
                if f"{label}:{case}" in by_kind:
                    arms[label] = by_kind[f"{label}:{case}"]
            cases[case] = arms
        return cases

    def detail(self, first_round, checks):
        """Schedules and distinct-bug set of every arm of every recall case."""
        return {
            "recall": {
                case: {
                    label: {
                        "schedules": op.schedules,
                        "bugs": sorted(f"[{kind}] {message}" for kind, message in op.detail["bugs"]),
                    }
                    for label, op in arms.items()
                }
                for case, arms in self.recall_cases(first_round, checks).items()
            }
        }

    def layer_metrics(self, tracer, untraced, traced, checks):
        out: Dict[str, float] = {}
        cases = self.recall_cases(untraced[: len(self.arms)], checks)
        for label in ("dpor", "cache", "clauses"):
            pairs = [(arms["none"], arms[label]) for arms in cases.values() if label in arms]
            wanted = sum(len(ref.detail["bugs"]) for ref, _ in pairs)
            found = sum(len(ref.detail["bugs"] & op.detail["bugs"]) for ref, op in pairs)
            out[f"reduction.schedules_ratio_{label}"] = geomean(
                op.schedules / ref.schedules for ref, op in pairs
            )
            out[f"reduction.bug_recall_{label}"] = found / wanted if wanted else 1.0
            # Cost the mode adds to one step, against the unreduced arm of
            # the same case (both untraced, same process).
            out[f"reduction.{label}_ns_per_step"] = 1e9 * sum(
                op.wall / op.steps - ref.wall / ref.steps for ref, op in pairs
            ) / max(1, len(pairs))
        one_round = untraced[: len(self.arms)]
        out["reduction.distinct_states"] = sum(op.detail["states"] for op in one_round)
        out["reduction.schedules_pruned"] = sum(op.detail["pruned"] for op in one_round)
        return out


# ----------------------------------------------------------------------
class _Shard(Workload):
    """Shared by the two shard workloads: the same specs run sharded over
    worker processes and, as the reference, in-process one by one."""

    def base(self, schedules: int) -> Dict[str, Any]:
        return dict(
            program=self.sizes.shard_program, max_iterations=schedules,
            time_limit=None, max_steps=self.sizes.soak_max_steps,
            stop_on_first_bug=False,
        )

    def specs(self, index: int, count: int) -> Tuple[StrategySpec, ...]:
        return tuple(
            StrategySpec("random", {"seed": derive(self.seed, self.name, index, shard)})
            for shard in range(count)
        )

    def warm_up(self) -> None:
        warm(self.sizes.shard_program)

    def _sharded(self, kind: str, run: Callable[[], Any], tracer) -> Op:
        with span_if(tracer, kind, campaign=True):
            report, *cost = measure(run)
        op = Op(kind, *cost, schedules=report.iterations,
                steps=report.total_steps, work=report.total_steps,
                detail={"fingerprints": fingerprints(report), "report": report})
        if report.interrupted or report.timed_out:
            op.ok, op.note = False, "campaign interrupted or timed out"
        return op

    def _in_process(self, base, specs, tracer) -> Op:
        """``Campaign.run()`` per spec, back to back: one operation whose
        cost is the sum over its campaigns.  Each campaign is timed on its
        own, so that each is charged the host sample next to it: one
        sample before and one after would say little about the half second
        in between."""
        runs = [run_campaign(dict(base, strategy=spec), tracer, "inprocess") for spec in specs]
        reports = [report for _, report, _ in runs]
        wall = sum(wall for _, _, (wall, _, _) in runs)
        cpu = sum(cpu for _, _, (_, cpu, _) in runs)
        host = (
            wall / sum(wall / host[0] for _, _, (wall, _, host) in runs),
            cpu / sum(cpu / host[1] for _, _, (_, cpu, host) in runs),
        )
        steps = sum(report.total_steps for report in reports)
        return Op(
            "inprocess", wall, cpu, host,
            schedules=sum(report.iterations for report in reports),
            steps=steps, work=steps,
            detail={"fingerprints": frozenset().union(*map(fingerprints, reports))},
        )

    @staticmethod
    def _hold_against(reference: Op, sharded: Sequence[Op]) -> None:
        for op in sharded:
            if op.schedules != reference.schedules:
                op.ok = False
                op.note = f"{op.schedules} schedules, in-process ran {reference.schedules}"
            elif op.detail["fingerprints"] != reference.detail["fingerprints"]:
                op.ok, op.note = False, "distinct-bug set differs from the in-process run"


class ShardLarge(_Shard):
    name = "shard_large"
    why = (
        "two large random shards of one Raft campaign over Campaign.portfolio() and "
        "a 2-worker fleet: compute-dominated, measures scaling and contention, not "
        "protocol cost"
    )

    def config(self, index: int) -> TestConfig:
        return TestConfig(
            specs=self.specs(index, self.sizes.shard_workers),
            **self.base(self.sizes.shard_large_schedules),
        )

    def round(self, index: int, tracer: Optional[Tracer]) -> List[Op]:
        config = self.config(index)
        return [
            self._sharded("portfolio", Campaign(config).portfolio, tracer),
            self._sharded(
                "fleet",
                lambda: run_fleet(config, local_workers=self.sizes.shard_workers),
                tracer,
            ),
        ]

    def check(self, first_round: Sequence[Op]) -> List[Op]:
        reference = self._in_process(
            self.base(self.sizes.shard_large_schedules),
            self.specs(0, self.sizes.shard_workers), None,
        )
        self._hold_against(reference, first_round)
        return [reference]

    def layer_metrics(self, tracer, untraced, traced, checks):
        reference = checks[0]
        portfolio, fleet = untraced[0], untraced[1]
        workers = self.sizes.shard_workers
        shards = [sub.elapsed for sub in portfolio.detail["report"].sub_reports]
        return {
            "portfolio.wall_s": portfolio.wall,
            "portfolio.overhead_s": portfolio.wall - max(shards),
            "portfolio.contention_ratio": sum(shards) / reference.wall,
            "portfolio.parallel_efficiency": reference.wall / (workers * portfolio.wall),
            "fleet.wall_s": fleet.wall,
            "fleet.parallel_efficiency": reference.wall / (workers * fleet.wall),
        }


class ShardSmall(_Shard):
    name = "shard_small"
    why = (
        "the same fleet fed hundreds of 5-schedule shards, and the same shards "
        "in-process: per-shard fixed cost (frame, config, runtime build, report "
        "codec, merge) is a third to half of the time"
    )

    def round(self, index: int, tracer: Optional[Tracer]) -> List[Op]:
        events = os.path.join(self.scratch, "fleet-events.jsonl")
        if os.path.exists(events):
            os.unlink(events)
        base = self.base(self.sizes.shard_small_schedules)
        specs = self.specs(index, self.sizes.shard_small_shards)
        config = TestConfig(specs=specs, events_path=events, **base)
        fleet = self._sharded(
            "fleet",
            lambda: run_fleet(config, local_workers=self.sizes.shard_workers),
            tracer,
        )
        fleet.detail["events"] = _fleet_events(events)
        reference = self._in_process(base, specs, tracer)
        self._hold_against(reference, [fleet])
        return [fleet, reference]

    def layer_metrics(self, tracer, untraced, traced, checks):
        fleet, reference = untraced[0], untraced[1]
        workers = self.sizes.shard_workers
        shards = [sub.elapsed for sub in fleet.detail["report"].sub_reports]
        events = fleet.detail["events"]
        return {
            "fleet.wall_s": fleet.wall,
            "fleet.per_shard_overhead_ms": (
                1e3 * (workers * fleet.wall - sum(shards)) / len(shards)
            ),
            "fleet.parallel_efficiency": reference.wall / (workers * fleet.wall),
            "fleet.spawn_to_first_result_s": events["first_result_s"],
            "fleet.requeues": events["requeues"],
            "fleet.respawns": max(0, events["spawns"] - workers),
        }


def _fleet_events(path: str) -> Dict[str, float]:
    """What the coordinator's event log says about one fleet campaign."""
    start = first = None
    requeues = spawns = 0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            kind = record["type"]
            if kind == "fleet_start":
                start = record["ts"]
            elif kind == "fleet_shard_result" and first is None:
                first = record["ts"]
            elif kind == "fleet_shard_requeued":
                requeues += 1
            elif kind == "fleet_worker_spawn":
                spawns += 1
    elapsed = first - start if start is not None and first is not None else 0.0
    return {"first_result_s": elapsed, "requeues": requeues, "spawns": spawns}


# ----------------------------------------------------------------------
ANALYZE_SUITES = ("psharpbench", "soter", "case-study")
ANALYSIS_PASSES = (
    ("base", dict(xsa=False, readonly=False)),
    ("xsa", dict(xsa=True, readonly=False)),
    ("full", dict(xsa=True, readonly=True)),
)


class Analyze(Workload):
    name = "analyze"
    why = (
        "Table 1: lower and analyze (xSA + read-only) the correct and racy variants "
        "of three suites; bypasses the tester entirely, so tester changes predict "
        "no change here"
    )

    def __init__(self, seed: int, sizes: Sizes, scratch: str) -> None:
        super().__init__(seed, sizes, scratch)
        # Excluded by suite, not by name: the "faults" suite is not lowerable.
        benchmarks = [b for s in ANALYZE_SUITES for b in registry.suite(s)]
        if sizes.analyze_programs is not None:
            benchmarks = [b for b in benchmarks if b.name in sizes.analyze_programs]
        self.cases = [
            (b, variant_name, b.loc())
            for b in benchmarks
            for variant_name in ("correct", "racy")
            if getattr(b, variant_name) is not None
        ]
        # Static analysis has no seed in it; the run seed decides the order.
        random.Random(derive(seed, "analyze-order")).shuffle(self.cases)

    @staticmethod
    def _lower(benchmark, variant_name):
        variant = getattr(benchmark, variant_name)
        return lower_machines(variant.machines, variant.helpers, name=benchmark.name)

    def warm_up(self) -> None:
        benchmark, variant_name, _ = min(self.cases, key=lambda case: case[2])
        analyze_program(self._lower(benchmark, variant_name), xsa=True, readonly=True)

    def round(self, index: int, tracer: Optional[Tracer]) -> List[Op]:
        return [self._analyze(*case, tracer) for case in self.cases]

    def _analyze(self, benchmark, variant_name, loc, tracer) -> Op:
        kind = f"analyze:{benchmark.name}:{variant_name}"

        def run():
            with span_if(tracer, kind, campaign=True):
                with span_if(tracer, "analysis.lower"):
                    program = self._lower(benchmark, variant_name)
                with span_if(tracer, "analysis.analyze"):
                    return analyze_program(program, xsa=True, readonly=True)

        analysis, *cost = measure(run)
        op = Op(kind, *cost, work=loc, exact=(analysis.violation_count(),),
                detail={"violations": analysis.violation_count(),
                        "seeded": benchmark.seeded_races})
        if variant_name == "correct" and not analysis.verified:
            op.ok, op.note = False, "correct variant does not verify"
        elif variant_name == "racy" and analysis.violation_count() < benchmark.seeded_races:
            op.ok, op.note = False, "a seeded race is not reported"
        return op

    def layer_metrics(self, tracer, untraced, traced, checks):
        """Pass costs by re-running ``analyze_program`` with passes off."""
        seconds = dict.fromkeys(("base", "xsa", "full"), 0.0)
        violations = dict.fromkeys(("base", "xsa", "full"), 0)
        for benchmark, variant_name, _ in self.cases:
            program = self._lower(benchmark, variant_name)
            for label, flags in ANALYSIS_PASSES:
                analysis, wall, *_ = measure(lambda: analyze_program(program, **flags))
                seconds[label] += wall
                if variant_name == "correct":
                    violations[label] += analysis.violation_count()
        racy = [op for op in untraced[: len(self.cases)] if op.kind.endswith(":racy")]
        seeded = sum(op.detail["seeded"] for op in racy)
        found = sum(min(op.detail["violations"], op.detail["seeded"]) for op in racy)
        rounds = len(traced) // len(self.cases)
        return {
            "analysis.lower_s": tracer.total_ns("analysis.lower") / 1e9 / rounds,
            "analysis.base_s": seconds["base"],
            "analysis.xsa_s": seconds["xsa"] - seconds["base"],
            "analysis.readonly_s": seconds["full"] - seconds["xsa"],
            "analysis.violations_base": violations["base"],
            "analysis.fp_after_xsa": violations["xsa"],
            "analysis.seeded_races_found_share": found / seeded if seeded else 1.0,
        }


WORKLOADS: Dict[str, type] = {
    cls.name: cls
    for cls in (Hunt, Soak, SoakHooks, Sweep, ShardLarge, ShardSmall, Analyze)
}
