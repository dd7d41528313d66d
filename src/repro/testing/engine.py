"""The campaign core: repeated controlled executions + statistics.

Drives a :class:`BugFindingRuntime` for many iterations and aggregates the
metrics Table 2 reports: number of threads (#T), scheduling points (#SP),
schedules per second (#Sch/sec), whether a bug was found, and — for the
random scheduler, which keeps exploring after a bug — the percentage of
buggy schedules (%Buggy).

A :class:`~repro.testing.config.TestConfig` is the only carrier of
campaign parameters down here.  :func:`build_runtime` is the one place
its per-execution fields are read, :func:`run_campaign` the one iteration
loop: ``Campaign.run`` and every shard of a sharded campaign call it, so
a 1-worker portfolio is, by construction, the plain campaign; and
:func:`replay_trace` re-executes a recorded schedule on a runtime built
the same way.  The carrier a campaign ran on — the runtime class's
``carrier``: ``"inline"``, or ``"threads"`` for
:class:`~repro.testing.threads.ThreadedRuntime` and CHESS — is recorded
as :attr:`TestReport.effective_backend`.
"""

from __future__ import annotations

import os
import time
import warnings
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple, Type,
    Union,
)

if TYPE_CHECKING:  # circular at runtime: config is the layer above
    from .config import TestConfig

from ..core.machine import Machine
from ..errors import BugReport
from .coverage import CoverageMap
from .faults import FaultConfig, outcome_name
from .record import (
    ANY, COUNTS, FLAG, INDEX, SECONDS, SUM, TEXT, Record, Rule, array_of,
    decode_fields, each, encode_fields, field, keep, most, nested, nullable,
    optional, record, scalar,
)
from .reduction import ReductionEngine
from .runtime import BugFindingRuntime, ExecutionResult
from .strategies import ReplayStrategy, SchedulingStrategy
from .telemetry import EventLog, TelemetryStats
from .trace import ScheduleTrace

#: A config's target resolved once: ``(main_cls, payload, monitors, faults)``.
Program = Tuple[Type[Machine], Any, Tuple[type, ...], Optional[FaultConfig]]


# ---------------------------------------------------------------------------
# The rules only a report needs (the rest are repro.testing.record's)
# ---------------------------------------------------------------------------
TRACE = Rule(
    encode=nullable(ScheduleTrace.to_pairs),
    decode=nullable(ScheduleTrace.from_pairs),
    wire="array of [kind, value] pairs (the trace-file schema) or null",
)

#: A bug's wire form: its detached fields (the machine as its string
#: form, the exception not kept), the trace nested in the one trace schema.
BUG_FIELDS = (
    ("kind", keep(TEXT)),
    ("message", keep(TEXT)),
    ("machine", keep(optional(TEXT))),
    ("trace", TRACE),
    ("iteration", keep(INDEX)),
    ("step", keep(INDEX)),
)


def _encode_bug(bug: BugReport) -> Dict[str, Any]:
    return encode_fields(bug.detached(), BUG_FIELDS)


def _decode_bug(document: Any) -> BugReport:
    return BugReport(**decode_fields("BugReport", BUG_FIELDS, document))


def _fold_bugs(
    mine: List[BugReport], shards: Sequence[List[BugReport]]
) -> List[BugReport]:
    # Deduplicated by schedule-trace fingerprint: two shards finding the
    # same interleaving (identical decision sequences, e.g. two seeded DFS
    # shards overlapping) contribute it once, first in fold order.  Bugs
    # without traces cannot be identified and are always kept.  One set
    # for the whole fold: each traced bug is fingerprinted once.
    seen = {bug.trace.fingerprint() for bug in mine if bug.trace is not None}
    for theirs in shards:
        for bug in theirs:
            if bug.trace is not None:
                key = bug.trace.fingerprint()
                if key in seen:
                    continue
                seen.add(key)
            mine.append(bug)
    return mine


def _merge_bugs(mine: List[BugReport], theirs: List[BugReport]) -> List[BugReport]:
    return _fold_bugs(mine, (theirs,))


def _decode_sub_report(document: Any) -> "TestReport":
    # Sub-reports nest one level in everything a writer produces; refusing
    # deeper keeps decoding off the stack's mercy (a 3,000-deep chain).
    if type(document) is dict and document.get("sub_reports"):
        raise ValueError("a sub-report carries sub-reports of its own")
    return TestReport.decode(document)


def _merge_backend(mine: Optional[str], theirs: Optional[str]) -> Optional[str]:
    if theirs is None or mine == theirs:
        return mine
    return theirs if mine is None else "mixed"


BUGS = Rule(
    merge=_merge_bugs, fold=_fold_bugs, fresh=list,
    copy=each(BugReport.detached),
    encode=each(_encode_bug),
    decode=array_of(_decode_bug),
    wire="array of BugReport objects",
    merged="concatenate, dropping a bug whose trace the receiver already holds",
)
FIRST_BUG = Rule(
    merge=lambda mine, theirs: theirs if mine is None else mine,
    copy=nullable(BugReport.detached),
    encode=nullable(_encode_bug),
    decode=nullable(_decode_bug),
    wire="BugReport object or null",
    merged="the receiver's, else the other's",
)
SUB_REPORTS = Rule(
    fresh=list,
    copy=each(Record.copy),
    encode=each(Record.encode),
    decode=array_of(_decode_sub_report),
    wire="array of TestReport objects that have no sub-reports themselves",
    merged="the receiver's (`merged()` sets it to its operands)",
)
BACKEND = scalar(optional(TEXT), _merge_backend, 'the one both name, else "mixed"')


@record
class TestReport(Record):
    """Aggregate statistics over all explored schedules.

    A report is a *record* (:mod:`repro.testing.record`): each field
    below names its merge rule, and ``merge``, ``copy`` (here
    :meth:`detached`), ``==`` and the JSON document ``result`` frames,
    checkpoints and report files carry (:meth:`encode` / :meth:`decode`)
    all follow from that one table.  A sharded campaign folds its shards'
    sub-reports into one campaign report whose counters are sums, whose
    ``max_machines`` is the max, and whose ``elapsed`` is wall-clock time
    (parallel work does not sum).

    (``__test__`` keeps pytest from collecting this as a test class.)
    """

    __test__ = False

    strategy: str = field(keep(TEXT), required=True)
    iterations: int = field(SUM)
    buggy_iterations: int = field(SUM)
    depth_bound_hits: int = field(SUM)
    # Iterations canceled by the per-iteration wall-clock watchdog
    # (status "watchdog"): the campaign moved on instead of wedging.
    watchdog_hits: int = field(SUM)
    total_steps: int = field(SUM)
    total_scheduling_points: int = field(SUM)
    max_machines: int = field(most())
    # Merged reports describe *concurrent* work, so the merge takes the
    # max: aggregate schedules/sec is total iterations over wall time.
    elapsed: float = field(most(SECONDS))
    # The first bug of a merge is the receiver's if it has one (fold
    # order defines precedence), otherwise the other's.
    first_bug: Optional[BugReport] = field(FIRST_BUG)
    bugs: List[BugReport] = field(BUGS)
    exhausted: bool = field(keep(FLAG))
    timed_out: bool = field(ANY)
    # True when the campaign was cut short by SIGINT and this report
    # covers only the work completed before the interrupt (the portfolio
    # flushes a final checkpoint and returns the partial merge).
    interrupted: bool = field(ANY)
    sub_reports: List["TestReport"] = field(SUB_REPORTS)
    # The carrier the campaign ran on ("inline", or "threads" for
    # ThreadedRuntime and CHESS).  Merged campaign reports show "mixed"
    # when sub-reports disagree.
    effective_backend: Optional[str] = field(BACKEND)
    # Observability: injected faults by outcome name (cut-off iterations
    # included: their faults fired), activity coverage and
    # execution-shape telemetry.  Coverage is attached only when the
    # campaign asked for it; telemetry is always collected (its cost is
    # one perf_counter pair + histogram bump per iteration).
    fault_kinds: Dict[str, int] = field(COUNTS)
    coverage: Optional[CoverageMap] = field(nested(CoverageMap, or_null=True))
    telemetry: Optional[TelemetryStats] = field(nested(TelemetryStats, or_null=True))
    # Schedule-space reduction (repro.testing.reduction): distinct program
    # states fingerprinted by the campaign's state cache, DPOR branches
    # never executed, and executions the state cache cut short (each
    # also counted in ``iterations``).  All zero when the campaign ran
    # with reduction="none".  Distinct-state counts sum across shards:
    # each shard's cache is private, so the merged figure over-counts
    # states two shards both visited — an upper bound, like summing
    # coverage before dedup.
    distinct_states: int = field(SUM)
    branches_pruned: int = field(SUM)
    state_prunes: int = field(SUM)
    # What the state cache cost, in exact counts: consultations that
    # hashed a state, and machine/monitor digests computed for them (the
    # rest were reused from the previous consultation of the execution).
    fingerprints: int = field(SUM)
    machine_digests: int = field(SUM)

    @property
    def bug_found(self) -> bool:
        return self.buggy_iterations > 0

    @property
    def first_bug_iteration(self) -> int:
        """The iteration that found :attr:`first_bug`; -1 without one."""
        return -1 if self.first_bug is None else self.first_bug.iteration

    @property
    def faults_injected(self) -> int:
        return sum(self.fault_kinds.values())

    @property
    def schedules_pruned(self) -> int:
        """Schedules the reduction avoided exploring: DPOR branches never
        executed plus executions the state cache cut short."""
        return self.branches_pruned + self.state_prunes

    @property
    def schedules_per_second(self) -> float:
        return self.iterations / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def mean_scheduling_points(self) -> float:
        return (
            self.total_scheduling_points / self.iterations if self.iterations else 0.0
        )

    @property
    def percent_buggy(self) -> float:
        return 100.0 * self.buggy_iterations / self.iterations if self.iterations else 0.0

    @property
    def redundancy_ratio(self) -> float:
        """Fraction of the schedule space the reduction machinery proved
        redundant: pruned schedules over every schedule, executed or
        not.  An execution the state cache cut short is one schedule,
        counted in ``iterations``; DPOR branches never executed are the
        rest.  0.0 when reduction was off (nothing was pruned)."""
        total = self.iterations + self.branches_pruned
        return self.schedules_pruned / total if total else 0.0

    @property
    def distinct_bugs(self) -> int:
        """Number of distinct bugs among ``bugs``, keyed by schedule-trace
        fingerprint (two different interleavings reaching the same
        assertion count separately — they *are* different schedules).
        Traceless bugs cannot be deduplicated and each count as
        distinct."""
        fingerprints = set()
        traceless = 0
        for bug in self.bugs:
            if bug.trace is None:
                traceless += 1
            else:
                fingerprints.add(bug.trace.fingerprint())
        return len(fingerprints) + traceless

    def summary(self) -> str:
        parts = [
            f"{self.strategy}: {self.iterations} schedules in {self.elapsed:.2f}s "
            f"({self.schedules_per_second:.1f}/s), #SP={self.mean_scheduling_points:.0f}, "
            f"buggy={self.buggy_iterations} ({self.percent_buggy:.0f}%)"
        ]
        if self.bugs:
            parts.append(f", distinct={self.distinct_bugs}")
        if self.watchdog_hits:
            parts.append(f", watchdog={self.watchdog_hits}")
        if self.distinct_states or self.schedules_pruned:
            parts.append(
                f", states={self.distinct_states}, "
                f"pruned={self.schedules_pruned} "
                f"({100.0 * self.redundancy_ratio:.0f}% redundant)"
            )
        if self.fingerprints:
            parts.append(
                f", fingerprints={self.fingerprints} "
                f"({self.machine_digests} digests)"
            )
        if self.faults_injected:
            parts.append(f", faults={self.faults_injected}")
        if self.effective_backend is not None:
            parts.append(f" [{self.effective_backend}]")
        if self.first_bug:
            parts.append(f", first bug: {self.first_bug}")
        return "".join(parts)

    # -- portfolio plumbing --------------------------------------------
    @classmethod
    def merged(
        cls, reports: Sequence["TestReport"], strategy: str = "portfolio"
    ) -> "TestReport":
        """Merge ``reports`` into a fresh campaign report (sub-reports
        kept): :meth:`Record.folded`, so the bug lists fold in one pass."""
        campaign = cls.folded(reports, strategy=strategy)
        campaign.exhausted = bool(reports) and all(r.exhausted for r in reports)
        campaign.sub_reports = list(reports)
        return campaign

    def detached(self) -> "TestReport":
        """A copy sharing no mutable part with this report.  Its bugs are
        in their wire form, as a campaign records them; one built by
        hand with live ones gets them detached (the machine as its
        string, the exception dropped), the traces kept for replay."""
        return self.copy()


def resolved_program(config: "TestConfig") -> Program:
    """``config``'s target resolved into the tuple :func:`run_campaign`
    and :func:`replay_trace` take as ``program=`` — for callers that
    resolve once and run many shards."""
    return (*config.resolve_program(), config.resolved_faults())


def build_runtime(
    config: "TestConfig",
    strategy: SchedulingStrategy,
    program: Program,
    *,
    deadline: Optional[float] = None,
    stop_check: Optional[Callable[[], bool]] = None,
    coverage: Optional[CoverageMap] = None,
    reduction: Optional[ReductionEngine] = None,
) -> BugFindingRuntime:
    """The runtime ``config`` describes, driven by ``strategy`` — built
    by ``config.runtime_factory`` when one is set.  The one place the
    per-execution fields are read off the config: the campaign loop and
    replay both construct their runtime here, so a bound a bug was found
    under is the bound it replays under."""
    _, _, monitors, faults = program
    kwargs = dict(
        strategy=strategy,
        max_steps=config.max_steps,
        record_trace=config.record_traces,
        livelock_as_bug=config.livelock_as_bug,
        deadline=deadline,
        stop_check=stop_check,
        monitors=monitors,
        max_hot_steps=config.max_hot_steps,
        faults=faults,
        iteration_timeout=config.iteration_timeout,
    )
    if coverage is not None:
        # Only added when collection is on, so custom runtime
        # factories without the parameter keep working unchanged.
        kwargs["coverage"] = coverage
    if reduction is not None:
        kwargs["reduction"] = reduction
    return (config.runtime_factory or BugFindingRuntime)(**kwargs)


def run_campaign(
    config: "TestConfig",
    strategy: SchedulingStrategy,
    *,
    program: Optional[Program] = None,
    deadline: Optional[float] = None,
    stop_check: Optional[Callable[[], bool]] = None,
    events: Optional[EventLog] = None,
) -> TestReport:
    """The iteration loop every campaign shape shares: run up to
    ``config.max_iterations`` schedules of ``config``'s program under
    ``strategy``.

    One runtime object is constructed for the whole campaign and reused
    across iterations (``BugFindingRuntime.reset`` runs at the top of
    every ``execute``), so per-iteration cost is the schedule itself, not
    runtime construction.  A handler the coroutine compiler refuses
    ends the campaign with its :class:`~repro.core.continuations
    .InlineCompileError`, which names the fallback,
    ``runtime_factory=ThreadedRuntime``.

    ``program`` is the target already resolved by
    :func:`resolved_program`; omitted, it is resolved here.
    ``deadline`` is an absolute ``time.monotonic()`` timestamp; when
    absent it is derived from ``config.time_limit``.  The deadline is
    enforced both between iterations and *inside* them (propagated to
    the runtime), so a single long schedule cannot overshoot the budget.
    ``stop_check`` is polled between iterations and inside them — a
    sharded campaign's first-bug-wins cancellation.  ``events`` streams
    shard-level progress to a :class:`~repro.testing.telemetry.EventLog`;
    execution-shape telemetry (``report.telemetry``) is always on.

    What the config's fields mean is documented on
    :class:`~repro.testing.config.TestConfig`.
    """
    if program is None:
        program = resolved_program(config)
    if deadline is None and config.time_limit is not None:
        deadline = time.monotonic() + config.time_limit
    main_cls, payload = program[:2]
    max_iterations = config.max_iterations
    stop_on_first_bug = config.stop_on_first_bug
    report = TestReport(strategy=strategy.name)
    cov = CoverageMap() if config.coverage else None
    red = config.build_reduction()
    # Always (re)attached, so a strategy reused across campaigns never
    # keeps a stale engine from a previous one; a strategy outside the
    # DFS family refuses an engine here, before any runtime is built.
    strategy.attach_reduction(red)
    stats = TelemetryStats()
    start = time.perf_counter()

    def fresh_runtime() -> BugFindingRuntime:
        return build_runtime(
            config, strategy, program,
            deadline=deadline, stop_check=stop_check,
            coverage=cov, reduction=red,
        )

    runtime = fresh_runtime()
    report.effective_backend = runtime.carrier
    if events is not None:
        events.emit(
            "shard_start",
            strategy=strategy.name,
            backend=report.effective_backend,
            max_iterations=max_iterations,
        )
    last_progress = start
    try:
        for iteration in range(max_iterations):
            if deadline is not None and time.monotonic() >= deadline:
                report.timed_out = True
                break
            if stop_check is not None and stop_check():
                break
            if not strategy.prepare_iteration():
                report.exhausted = True
                break
            if runtime.tainted:
                # A straggler machine thread from the previous iteration
                # never unwound; that runtime (and its thread) is written
                # off so the straggler cannot corrupt later iterations.
                runtime = fresh_runtime()
            iter_start = time.perf_counter()
            result = runtime.execute(main_cls, payload)
            iter_end = time.perf_counter()
            report.max_machines = max(report.max_machines, runtime.machine_count)
            report.total_steps += result.steps
            report.total_scheduling_points += result.scheduling_points
            if any(result.fault_kinds):
                COUNTS.merge(report.fault_kinds, {
                    outcome_name(code): count
                    for code, count in enumerate(result.fault_kinds) if count
                })
            if result.status in ("time-bound", "stopped"):
                # Cut off mid-schedule: count the work, not the schedule.
                report.timed_out = report.timed_out or result.status == "time-bound"
                break
            report.iterations += 1
            stats.record_iteration(
                steps=result.steps,
                scheduling_points=result.scheduling_points,
                wall_seconds=iter_end - iter_start,
                since_start=iter_end - start,
                consulted=result.consulted,
            )
            if result.status == "depth-bound":
                report.depth_bound_hits += 1
            elif result.status == "watchdog":
                # The per-iteration watchdog canceled a stuck execution;
                # count it and keep campaigning — unlike "time-bound",
                # the campaign budget is not exhausted.
                report.watchdog_hits += 1
                if events is not None:
                    events.emit("watchdog_hit", iteration=iteration)
            if events is not None and iter_end - last_progress >= 1.0:
                last_progress = iter_end
                events.emit(
                    "progress",
                    iterations=report.iterations,
                    buggy=report.buggy_iterations,
                    steps=report.total_steps,
                )
            if result.buggy:
                # Recorded in its wire form: the live bug's exception
                # pins the execution's frames and machines, and this
                # frame too.
                assert result.bug is not None
                bug = result.bug.detached()
                bug.iteration = iteration
                report.buggy_iterations += 1
                report.bugs.append(bug)
                if report.first_bug is None:
                    report.first_bug = bug
                if events is not None:
                    events.emit(
                        "bug_found",
                        iteration=iteration,
                        kind=bug.kind,
                        message=str(bug.message),
                    )
                if stop_on_first_bug:
                    break
    finally:
        # The last result's live bug reaches this frame through its
        # exception's traceback: a cycle, unless it is let go here.
        result = None
        runtime.close()
    report.elapsed = time.perf_counter() - start
    report.coverage = cov
    report.telemetry = stats
    # The reduction counters ride the report and the shard_end record
    # under the same names.
    extra = red.counters() if red is not None else {}
    for name, value in extra.items():
        setattr(report, name, value)
    if events is not None:
        events.emit(
            "shard_end",
            iterations=report.iterations,
            buggy=report.buggy_iterations,
            elapsed=round(report.elapsed, 3),
            exhausted=report.exhausted,
            timed_out=report.timed_out,
            **extra,
        )
    return report


def replay_trace(
    config: "TestConfig",
    trace: Union[ScheduleTrace, str, "os.PathLike"],
    *,
    program: Optional[Program] = None,
) -> ExecutionResult:
    """Deterministically re-execute a recorded schedule under ``config``.

    This is the paper's bug-reproduction workflow: a found bug's trace is
    replayed to observe the same failure again.  ``trace`` is either a
    live :class:`ScheduleTrace` or the path of a file written by
    :meth:`ScheduleTrace.save` (how the ``python -m repro replay`` CLI
    hands traces around).  Replay is carrier agnostic: a trace recorded
    on the inline carrier replays on :class:`~repro.testing.threads
    .ThreadedRuntime` and the other way round.

    The runtime comes from :func:`build_runtime`, exactly as the campaign
    loop's does, so everything that decides *where* decisions are
    consulted — monitors, ``max_hot_steps``, the fault config (the
    replay strategy re-fires the recorded outcomes at exactly the
    recorded points and never invents faults), a ``runtime_factory``
    with its own scheduling points — is the config's.  Replayed under
    the config the bug was found with, monitor-detected safety and
    liveness violations reproduce and the re-recorded trace is
    bit-identical to the original.  Replayed under a different one, the
    execution may leave the recorded schedule: the result then says so
    (:attr:`ExecutionResult.diverged`) and whatever it reports is not
    what the trace recorded.
    """
    if not isinstance(trace, ScheduleTrace):
        trace = ScheduleTrace.load(trace)
    if program is None:
        program = resolved_program(config)

    # The point of a replay is the re-recorded trace.
    config = config.with_overrides(record_traces=True)
    strategy = ReplayStrategy(trace)
    strategy.prepare_iteration()
    try:
        runtime = build_runtime(config, strategy, program)
    except (AttributeError, TypeError) as exc:
        if config.runtime_factory is None:
            raise
        # A factory written against its campaign's own live strategy (an
        # instrumenting subclass reading attributes off it) cannot host a
        # ReplayStrategy.  Replay on the stock runtime, loudly: if the
        # factory also moved scheduling points the result will come back
        # diverged.
        warnings.warn(
            f"runtime_factory {config.runtime_factory!r} cannot be built "
            f"over a ReplayStrategy ({exc}); replaying on the stock runtime",
            RuntimeWarning,
            stacklevel=2,
        )
        runtime = build_runtime(
            config.with_overrides(runtime_factory=None), strategy, program
        )
    return runtime.execute(*program[:2])
