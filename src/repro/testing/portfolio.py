"""Parallel portfolio testing: many strategies racing in separate processes.

The paper's Table 2 measures single-strategy, single-process campaigns.
Two observations push beyond that:

* No single search heuristic dominates — DFS exhausts shallow corners,
  random sampling finds the deep rare bugs, PCT and delay-bounding carry
  probabilistic guarantees for bounded-depth bugs.  Running a *portfolio*
  of diverse strategies hedges across bug depths, the same way portfolio
  SAT/SMT solvers combine complementary heuristics.
* One schedule-controlled execution serializes everything on purpose, so
  a campaign's schedules/sec is capped by one core.  Sharding workers
  across processes recovers the hardware's parallelism.

:func:`run_portfolio` runs one worker process per :class:`StrategySpec`.
Each worker runs the same iteration loop as a plain single-strategy
campaign (:func:`~repro.testing.engine.run_campaign`) over the campaign's
picklable :class:`~repro.testing.config.TestConfig`, constructs its
strategy from its picklable spec via the strategy-factory registry, and
reports a *detached* (picklable) :class:`~repro.testing.engine.TestReport`
back.  The first worker to find a bug wins: a shared cancellation event
stops the others (polled between iterations and inside long ones), and
the winner's :class:`~repro.testing.trace.ScheduleTrace` replays
deterministically in the parent via ``Campaign.replay()``.
"""

from __future__ import annotations

import ast
import multiprocessing
import os
import queue as queue_module
import random
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

if TYPE_CHECKING:  # circular at runtime: config is the layer above
    from .config import TestConfig

from ..errors import PSharpError
from .checkpoint import (
    config_fingerprint,
    load_checkpoint,
    save_checkpoint,
    verify_checkpoint,
)
from .engine import Program, TestReport, resolved_program, run_campaign
from .telemetry import EventLog
from .strategies import (
    DelayBoundingStrategy,
    DfsStrategy,
    FairRandomStrategy,
    IterativeDeepeningDfsStrategy,
    PctStrategy,
    RandomStrategy,
    SchedulingStrategy,
)


# ---------------------------------------------------------------------------
# Strategy specs + factory registry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class StrategySpec:
    """A picklable recipe for constructing a scheduling strategy.

    Workers build strategies from specs instead of receiving live strategy
    objects: strategies hold RNGs and mutable search state that must start
    fresh in the worker, and some (DFS stacks) are not meaningfully
    picklable anyway.
    """

    name: str
    params: Dict[str, Any] = field(default_factory=dict)

    def __hash__(self) -> int:
        # The auto-generated frozen-dataclass hash would raise on the dict
        # field; specs are natural set/dict-key material, so hash by value.
        return hash((self.name, tuple(sorted(self.params.items()))))

    def build(self) -> SchedulingStrategy:
        return make_strategy(self)

    def label(self) -> str:
        if not self.params:
            return self.name
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.name}({inner})"

    @classmethod
    def parse(cls, text: str) -> "StrategySpec":
        """Parse ``"name"`` or ``"name,kw=value,..."`` into a spec — the
        ``--strategy`` syntax of the ``python -m repro`` CLI.  Values go
        through ``ast.literal_eval`` (so ``seed=7`` is an int and
        ``bias=0.7`` a float) and fall back to the raw string."""
        name, _, rest = text.partition(",")
        name = name.strip()
        if not name:
            raise PSharpError(f"empty strategy name in {text!r}")
        params: Dict[str, Any] = {}
        if rest.strip():
            for pair in rest.split(","):
                key, sep, value = pair.partition("=")
                key = key.strip()
                if not sep or not key:
                    raise PSharpError(
                        f"malformed strategy parameter {pair.strip()!r} in "
                        f"{text!r} (expected kw=value)"
                    )
                try:
                    params[key] = ast.literal_eval(value.strip())
                except (ValueError, SyntaxError):
                    params[key] = value.strip()
        return cls(name, params)


StrategyFactory = Callable[..., SchedulingStrategy]

_STRATEGY_FACTORIES: Dict[str, StrategyFactory] = {
    "random": RandomStrategy,
    "fair-random": FairRandomStrategy,
    "dfs": DfsStrategy,
    "iddfs": IterativeDeepeningDfsStrategy,
    "pct": PctStrategy,
    "delay-bounding": DelayBoundingStrategy,
}


def register_strategy(name: str, factory: StrategyFactory) -> None:
    """Register a custom strategy factory under ``name`` so portfolio specs
    can refer to it."""
    _STRATEGY_FACTORIES[name] = factory


def strategy_names() -> List[str]:
    return sorted(_STRATEGY_FACTORIES)


def make_strategy(spec: StrategySpec) -> SchedulingStrategy:
    try:
        factory = _STRATEGY_FACTORIES[spec.name]
    except KeyError:
        raise PSharpError(
            f"unknown strategy {spec.name!r}; known: {', '.join(strategy_names())}"
        ) from None
    try:
        return factory(**spec.params)
    except TypeError as exc:
        # A misspelled/extra parameter is a configuration error, not a
        # crash: surface it as the library's error type so callers (the
        # CLI's exit-2 path, the portfolio's fail-fast loop) report it
        # cleanly.
        raise PSharpError(
            f"invalid parameters for strategy {spec.label()!r}: {exc}"
        ) from exc


# The diverse default mix the portfolio cycles through: a fair random
# sampler, PCT at several priority-change budgets, delay-bounding at
# several delay budgets, and iterative-deepening DFS for the systematic
# shallow sweep (ISSUE: "random, PCT with varied priority-change budgets,
# delay-bounding with varied delay budgets, iterative-deepening DFS").
_DEFAULT_TEMPLATES: Tuple[Tuple[str, Dict[str, Any]], ...] = (
    ("random", {}),
    ("pct", {"depth": 3}),
    ("delay-bounding", {"delays": 2}),
    ("iddfs", {}),
    ("pct", {"depth": 10}),
    ("delay-bounding", {"delays": 4}),
    ("pct", {"depth": 20}),
    ("delay-bounding", {"delays": 8}),
    # The fair scheduler rides at the end of the cycle: wide portfolios
    # gain a worker whose long executions stay meaningful, which is what
    # liveness-monitor temperature detection needs.
    ("fair-random", {}),
)

_SEEDED = {"random", "fair-random", "pct", "delay-bounding"}


def default_portfolio(workers: int, seed: Optional[int] = None) -> List[StrategySpec]:
    """``workers`` specs cycling through the default strategy mix, with
    distinct derived seeds so same-named workers explore differently."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    # An unseeded portfolio must vary across runs (like an unseeded
    # RandomStrategy), not silently behave as seed=0.
    base_seed = seed if seed is not None else random.randrange(2**31)
    specs = []
    for index in range(workers):
        name, params = _DEFAULT_TEMPLATES[index % len(_DEFAULT_TEMPLATES)]
        params = dict(params)
        if name in _SEEDED:
            params["seed"] = base_seed * 10_007 + index
        specs.append(StrategySpec(name, params))
    return specs


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------
def _portfolio_worker(
    index: int,
    spec: StrategySpec,
    config: "TestConfig",
    program: Program,
    deadline: float,
    cancel: Any,  # multiprocessing.Event
    results: Any,  # multiprocessing.Queue
    heartbeats: Any = None,  # multiprocessing.Array('d', ...) or None
) -> None:
    """Run one strategy's shard of the campaign; always report back.

    ``config`` crosses the process boundary by value: under a
    "spawn"/"forkserver" start method it is pickled, so a
    ``runtime_factory`` it carries must be module-level.

    ``heartbeats[index]`` is refreshed from the runtime's stop-check
    poll, which fires between iterations and inside long executions —
    a worker whose slot goes stale is wedged (or dead) and the parent
    may terminate and respawn it."""
    if heartbeats is not None:

        def stop_check() -> bool:
            heartbeats[index] = time.monotonic()
            return cancel.is_set()

    else:
        stop_check = cancel.is_set
    # Per-shard event stream: workers append to the same JSONL file as
    # the parent (single-line appends are multi-process safe), tagged
    # with their shard index.
    events = (
        EventLog(config.events_path, shard=index)
        if config.events_path is not None
        else None
    )
    try:
        report = run_campaign(
            config, make_strategy(spec),
            program=program, deadline=deadline, stop_check=stop_check,
            events=events,
        )
        if config.stop_on_first_bug and report.first_bug is not None:
            cancel.set()
        results.put((index, report.detached()))
    except Exception as exc:  # noqa: BLE001 - never strand the parent
        results.put((index, TestReport(strategy=spec.label())))
        raise SystemExit(f"portfolio worker {index} ({spec.label()}) failed: {exc}")
    finally:
        if events is not None:
            events.close()


# ---------------------------------------------------------------------------
# The portfolio runner
# ---------------------------------------------------------------------------
def merge_shard_reports(
    specs: Sequence[StrategySpec],
    collected: Dict[int, TestReport],
    *,
    strategy: str = "portfolio",
    winner_index: Optional[int] = None,
    elapsed: Optional[float] = None,
    interrupted: bool = False,
) -> TestReport:
    """Fold per-shard reports into one campaign report, in shard order.

    The one merge path every sharded campaign shape shares — the local
    portfolio runner and the distributed fleet coordinator
    (:mod:`repro.testing.fleet`) both end here, so "what does a merged
    report mean" has a single answer.  Shards missing from ``collected``
    (worker died, missed the flush window, never assigned) contribute an
    empty report so the merge arithmetic stays honest; distinct-bug
    dedup by trace fingerprint happens inside
    :meth:`TestReport.merged`."""
    ordered = []
    for index, spec in enumerate(specs):
        report = collected.get(index)
        if report is None:
            report = TestReport(strategy=spec.label())
        if report.strategy != spec.label():
            report.strategy = spec.label()
        ordered.append(report)
    campaign = TestReport.merged(ordered, strategy=strategy)
    if elapsed is not None:
        campaign.elapsed = elapsed
    if interrupted:
        campaign.interrupted = True
    if winner_index is not None and winner_index in collected:
        winning = collected[winner_index]
        campaign.first_bug = winning.first_bug
        campaign.first_bug_iteration = winning.first_bug_iteration
    return campaign


#: extra seconds granted after the deadline/cancellation for workers to
#: flush their final reports before being terminated.
DEFAULT_GRACE = 10.0

#: how long a worker's heartbeat slot may go unrefreshed before the
#: parent declares it wedged and puts it down (see _portfolio_worker).
DEFAULT_HEARTBEAT_TIMEOUT = 30.0

#: how many times a dead/wedged shard is restarted before being abandoned.
DEFAULT_MAX_RESPAWNS = 2


def worker_context(config: "TestConfig") -> Any:
    """The ``multiprocessing`` context a campaign's worker processes
    start from — the portfolio's shards and the fleet's local workers:
    ``config.start_method``, defaulting to ``fork`` (workers share the
    already-imported program modules and compiled machine classes) where
    the platform has it and to the platform default elsewhere."""
    start_method = config.start_method
    if start_method is None:
        methods = multiprocessing.get_all_start_methods()
        start_method = "fork" if "fork" in methods else methods[0]
    return multiprocessing.get_context(start_method)


def run_portfolio(
    config: "TestConfig",
    *,
    grace: float = DEFAULT_GRACE,
    checkpoint: "str | os.PathLike | None" = None,
    resume: "str | os.PathLike | None" = None,
    heartbeat_timeout: Optional[float] = DEFAULT_HEARTBEAT_TIMEOUT,
    max_respawns: int = DEFAULT_MAX_RESPAWNS,
) -> TestReport:
    """Run a sharded multi-process campaign described by a
    :class:`~repro.testing.config.TestConfig`.

    One worker process per strategy spec (``config.specs``, or the
    default diverse mix sized by ``config.portfolio_workers``), the
    shared deadline, first-bug-wins cancellation, and the honest merge of
    detached per-worker reports — including ``effective_backend``, which
    each worker's :func:`~repro.testing.engine.run_campaign` resolves
    process-locally from ``config.workers`` (``"auto"`` gives every
    worker the inline runtime with the pooled fallback).  ``grace`` is
    the flush window workers get after the deadline or a cancellation
    before they are terminated.

    The campaign is robust to its own failures:

    * every worker refreshes a shared heartbeat slot; a worker that dies
      (OOM-kill, segfault) or stops heartbeating for ``heartbeat_timeout``
      seconds is detected, terminated if needed, and its shard restarted
      from scratch with exponential backoff — up to ``max_respawns``
      times, after which the shard is abandoned (an empty report keeps
      the merge arithmetic honest);
    * ``checkpoint`` names a file that atomically receives the campaign's
      progress (the detached report of every completed shard + the
      materialized strategy mix) after each shard finishes; ``resume``
      restarts a killed campaign from such a file, re-running only the
      shards that had not completed (``checkpoint`` defaults to the
      ``resume`` path so the resumed campaign keeps checkpointing);
    * Ctrl-C (``KeyboardInterrupt``) degrades gracefully: workers are
      cancelled, already-finished shards get a short flush window, a
      final checkpoint is written, and the merged partial report comes
      back with ``interrupted=True`` instead of a traceback;
    * every child process ever spawned is terminated and joined on the
      way out — no leaked children, whatever path exits the loop.
    """
    program = resolved_program(config)
    completed: Dict[int, TestReport] = {}
    if resume is not None:
        state = load_checkpoint(resume)
        verify_checkpoint(state, config, os.fspath(resume))
        # The stored mix, not a regenerated one: the default portfolio
        # draws fresh seeds per call, so shard indices only line up with
        # the checkpoint's completed-set against the original specs.
        specs = list(state["specs"])
        completed = dict(state["completed"])
        if checkpoint is None:
            checkpoint = resume
    else:
        specs = list(config.portfolio_specs())
    for spec in specs:
        # Fail fast in the parent: a typo'd strategy name or parameter
        # must raise here, not silently produce an empty worker shard.
        make_strategy(spec)
    fingerprint = config_fingerprint(config) if checkpoint is not None else None
    ctx = worker_context(config)
    cancel = ctx.Event()
    results = ctx.Queue()
    # Raw shared doubles, one per shard: each worker stamps its slot with
    # time.monotonic() from its stop-check poll.  No lock: single-writer
    # per slot, and a torn read merely mis-times one staleness check.
    heartbeats = ctx.Array("d", max(1, len(specs)), lock=False)
    deadline = (
        time.monotonic() + config.time_limit
        if config.time_limit is not None
        else float("inf")
    )
    # Parent-side event stream: campaign lifecycle, worker supervision
    # and checkpoint writes.  Workers append shard-tagged records to the
    # same file; line-sized appends interleave safely.
    events = (
        EventLog(config.events_path) if config.events_path is not None else None
    )
    if events is not None:
        events.emit(
            "campaign_start",
            program=str(config.program),
            specs=[spec.label() for spec in specs],
            resumed=resume is not None,
            completed_shards=sorted(completed),
        )

    collected: Dict[int, TestReport] = dict(completed)
    checkpointed: Dict[int, TestReport] = dict(completed)
    running: Dict[int, Any] = {}
    all_children: List[Any] = []
    respawns: Dict[int, int] = {}
    respawn_at: Dict[int, float] = {}
    abandoned: Set[int] = set()
    winner_index: Optional[int] = None
    interrupted = False
    hard_stop = deadline + grace
    wall_start = time.perf_counter()

    def spawn(index: int) -> None:
        heartbeats[index] = time.monotonic()
        process = ctx.Process(
            target=_portfolio_worker,
            args=(
                index, specs[index], config, program,
                deadline, cancel, results, heartbeats,
            ),
            daemon=True,
            name=f"portfolio-{index}-{specs[index].name}",
        )
        all_children.append(process)
        running[index] = process
        process.start()
        if events is not None:
            events.emit(
                "worker_spawn",
                shard=index,
                spec=specs[index].label(),
                attempt=respawns.get(index, 0),
                pid=process.pid,
            )

    def accept(index: int, report: TestReport, *, flush_only: bool = False) -> None:
        nonlocal winner_index, hard_stop
        collected[index] = report
        running.pop(index, None)
        respawn_at.pop(index, None)
        if not flush_only:
            # Reports that land after Ctrl-C are partial (the worker was
            # cancelled mid-shard): merge them into the campaign report,
            # but never mark them completed in the checkpoint — a resume
            # must re-run those shards in full.
            checkpointed[index] = report
            if checkpoint is not None:
                save_checkpoint(
                    checkpoint,
                    fingerprint=fingerprint,
                    specs=specs,
                    completed=checkpointed,
                )
                if events is not None:
                    events.emit(
                        "checkpoint",
                        path=os.fspath(checkpoint),
                        completed_shards=sorted(checkpointed),
                    )
        if (
            winner_index is None
            and report.first_bug is not None
            and config.stop_on_first_bug
        ):
            winner_index = index
            cancel.set()
            # The rest will stop at their next poll; give them only a
            # short flush window instead of the full remaining budget.
            hard_stop = min(hard_stop, time.monotonic() + grace)

    # A resumed campaign whose checkpointed shards already hold the bug
    # is finished: don't re-spawn the incomplete shards just to cancel
    # them immediately.
    if config.stop_on_first_bug:
        for index in sorted(completed):
            if completed[index].first_bug is not None:
                winner_index = index
                break

    try:
        try:
            if winner_index is None:
                for index in range(len(specs)):
                    if index not in collected:
                        spawn(index)
            while len(collected) + len(abandoned) < len(specs):
                budget = hard_stop - time.monotonic()
                if budget <= 0:
                    break
                # Drain everything queued before judging liveness, so a
                # worker that reported and exited is never declared dead.
                drained = False
                while True:
                    try:
                        index, report = results.get_nowait()
                    except queue_module.Empty:
                        break
                    drained = True
                    accept(index, report)
                if len(collected) + len(abandoned) >= len(specs):
                    break
                now = time.monotonic()
                for index, process in list(running.items()):
                    stale = (
                        heartbeat_timeout is not None
                        and now - heartbeats[index] > heartbeat_timeout
                    )
                    if process.is_alive() and not stale:
                        continue
                    if process.is_alive():
                        # Wedged (stale heartbeat): put it down before
                        # restarting the shard.
                        process.terminate()
                        process.join(timeout=1.0)
                    running.pop(index)
                    attempts = respawns.get(index, 0)
                    if cancel.is_set() or attempts >= max_respawns:
                        abandoned.add(index)
                        if events is not None:
                            events.emit(
                                "worker_abandoned",
                                shard=index,
                                spec=specs[index].label(),
                                attempts=attempts,
                                stale=stale,
                            )
                    else:
                        respawns[index] = attempts + 1
                        respawn_at[index] = now + 0.5 * (2 ** attempts)
                        if events is not None:
                            events.emit(
                                "worker_respawn",
                                shard=index,
                                spec=specs[index].label(),
                                attempt=respawns[index],
                                stale=stale,
                            )
                for index, due in list(respawn_at.items()):
                    if cancel.is_set():
                        respawn_at.pop(index)
                        abandoned.add(index)
                    elif now >= due:
                        respawn_at.pop(index)
                        spawn(index)
                if not running and not respawn_at:
                    # Nothing is executing and nothing is scheduled to —
                    # no further results can arrive (e.g. a resumed
                    # checkpoint already held the winning bug).
                    break
                if not drained:
                    try:
                        index, report = results.get(timeout=min(budget, 0.25))
                    except queue_module.Empty:
                        continue
                    accept(index, report)
        except KeyboardInterrupt:
            # Graceful degradation: cancel the fleet, give shards that
            # already finished a short window to flush their reports,
            # persist a final checkpoint, and fall through to the merge
            # with interrupted=True (the CLI maps that to exit 130).
            interrupted = True
            cancel.set()
            if events is not None:
                events.emit("interrupted")
            flush_stop = time.monotonic() + min(grace, 2.0)
            while (
                len(collected) + len(abandoned) < len(specs)
                and time.monotonic() < flush_stop
            ):
                try:
                    index, report = results.get(timeout=0.1)
                except (queue_module.Empty, KeyboardInterrupt):
                    continue
                accept(index, report, flush_only=True)
            if checkpoint is not None:
                save_checkpoint(
                    checkpoint,
                    fingerprint=fingerprint,
                    specs=specs,
                    completed=checkpointed,
                )
    finally:
        # Leak-proof shutdown: every child ever spawned is terminated and
        # joined on every exit path (normal, winner, deadline, Ctrl-C,
        # exception) so no campaign strands worker processes.
        cancel.set()
        for process in all_children:
            if process.is_alive():
                process.terminate()
        for process in all_children:
            process.join(timeout=1.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=1.0)

    # Late flushes can still land after the loop gave up on a worker.
    while len(collected) < len(specs):
        try:
            index, report = results.get_nowait()
        except queue_module.Empty:
            break
        collected.setdefault(index, report)
    results.close()

    campaign = merge_shard_reports(
        specs,
        collected,
        strategy="portfolio",
        winner_index=winner_index,
        elapsed=time.perf_counter() - wall_start,
        interrupted=interrupted,
    )
    if events is not None:
        events.emit(
            "campaign_end",
            iterations=campaign.iterations,
            bugs=len(campaign.bugs),
            elapsed=round(campaign.elapsed, 6),
            interrupted=interrupted,
            abandoned_shards=sorted(abandoned),
        )
        events.close()
    return campaign
