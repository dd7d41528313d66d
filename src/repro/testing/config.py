"""The declarative campaign facade: :class:`TestConfig` + :class:`Campaign`.

P# exposes one coherent tester surface — a configuration object plus a
command-line tester — over its runtime, strategies and monitors
(Section 7).  This module is that surface for the reproduction: a single
frozen, picklable :class:`TestConfig` captures the *complete* campaign
specification (program target, strategy spec(s), iteration/time/step
budgets, specification monitors, liveness threshold,
trace recording, seeds), and :class:`Campaign` executes it:

* ``Campaign(config).run()`` — a single-strategy campaign
  (:func:`repro.testing.engine.run_campaign` under the hood);
* ``Campaign(config).portfolio()`` — the sharded multi-process campaign
  (:func:`repro.testing.fleet.run_fleet` with one local worker per
  strategy spec);
* ``Campaign(config).replay(trace)`` — deterministic reproduction from a
  live :class:`~repro.testing.trace.ScheduleTrace` or a trace file
  (:func:`repro.testing.engine.replay_trace`).

Below this facade the config object itself is what travels — to the
campaign loop, by value to the coordinator's own worker processes, as
campaign JSON to fleet workers on the wire — so a new knob is one field
line of :class:`TestConfig` (name, default, rule: validation, campaign
JSON, the checkpoint fingerprint and the documented schema follow from
it), its use in the engine's one runtime builder, and a flag in
:mod:`repro.__main__` if the command line should set it.  The ``python
-m repro`` CLI is built entirely on this module.

Campaigns run on the one single-thread carrier, machine handlers
compiled into coroutines; a handler shape the compiler refuses stops the
campaign with an ``InlineCompileError`` naming the method and the
fallback, ``runtime_factory=ThreadedRuntime`` — Python API only: a
config with a ``runtime_factory`` does not serialize, so no campaign
file, checkpoint or fleet job can carry it.  The carrier a campaign ran
on is recorded as ``TestReport.effective_backend``.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Any, Callable, Dict, Optional, Tuple, Type, Union

from ..core.machine import Machine
from ..errors import PSharpError
from .engine import TestReport, replay_trace, run_campaign
from .faults import FaultConfig
from .reduction import DEFAULT_STATE_CACHE_SIZE, REDUCTION_MODES, ReductionEngine
from .monitors import Monitor
from .portfolio import (
    _SEEDED,
    StrategySpec,
    default_portfolio,
    make_strategy,
)
from .record import (
    CLASSES, DURATION, FLAG, INTEGER, POSITIVE, TEXT, Declared, Rule,
    class_path, describe, each, field, keep, loads, nullable, one_of,
    optional, plain, record, write_atomic,
)
from .runtime import ExecutionResult
from .strategies import SchedulingStrategy
from .telemetry import EventLog
from .trace import ScheduleTrace

#: What ``TestConfig.workers`` accepts; both name the one carrier.
WORKER_MODES = ("auto", "inline")

StrategyLike = Union[StrategySpec, str, Tuple[str, dict], None]
TargetLike = Union[str, Type[Machine]]


def _fold_seed(spec: StrategySpec, seed: Optional[int]) -> StrategySpec:
    """The campaign ``seed`` applied to one spec: seedable strategies
    without an explicit seed of their own inherit it."""
    if seed is not None and spec.name in _SEEDED and "seed" not in spec.params:
        return StrategySpec(spec.name, {**spec.params, "seed": seed})
    return spec


# ----------------------------------------------------------------------
# Campaign JSON: the versioned on-disk / on-wire schema (docs/protocol.md
# §"config" and docs/cli.md "Campaign files", whose field table is
# generated from the declarations below).  A campaign is one shippable
# artifact: ``config.save("campaign.json")`` then ``python -m repro test
# --config campaign.json`` (or ``serve``, which streams the same object
# to every fleet worker in its welcome message).

#: Bumped whenever the campaign JSON schema changes incompatibly; a
#: reader only accepts files carrying exactly the version it speaks.
#: Version 2 is version 1 without the local workers' start method.
CONFIG_SCHEMA_VERSION = 2


def _program(value: Any) -> TargetLike:
    if isinstance(value, str) or (
        isinstance(value, type) and issubclass(value, Machine)
    ):
        return value
    raise ValueError(
        "expected a Machine subclass, a benchmark name or 'module:Class', "
        f"got {describe(value)}"
    )


def _spec_tuple(value: Any) -> Tuple[StrategySpec, ...]:
    if type(value) not in (list, tuple) or not value:
        raise ValueError(
            f"expected an array of at least one strategy, got {describe(value)}"
        )
    return tuple(map(StrategySpec.decode, value))


# The rules only this class has.  ``strategy`` stores the user's spelling
# and does NOT fold the campaign seed in, so "was a seed explicitly
# given?" survives ``with_overrides`` re-validation — folding happens at
# build time (:func:`_fold_seed`).
_SPEC_WIRE = '`"name,key=value"` string or `{"name", "params"}` object'
PAYLOAD = Rule(
    decode=lambda value: value, encode=plain("payload"), wire="any JSON value"
)
PROGRAM = Rule(
    decode=_program,
    encode=lambda value: value if isinstance(value, str) else class_path(value),
    wire="string: a registry name or `module:Class`",
)
STRATEGY = Rule(
    decode=lambda value: (
        StrategySpec("random") if value is None else StrategySpec.decode(value)
    ),
    encode=StrategySpec.encode, wire=_SPEC_WIRE + "; null reads as `random`",
)
SPECS = Rule(
    decode=nullable(_spec_tuple), encode=nullable(each(StrategySpec.encode)),
    wire=f"non-empty array of ({_SPEC_WIRE}), or null",
)
FAULTS = Rule(
    decode=nullable(FaultConfig.decode), encode=nullable(FaultConfig.encode),
    wire="FaultConfig object (below) or null",
)
_text = keep(TEXT).decode
PATH = Rule(
    decode=nullable(lambda value: _text(os.fspath(value))), wire="string or null"
)


@record(frozen=True)
class TestConfig(Declared):
    """One frozen, picklable description of a whole testing campaign.

    (``__test__`` keeps pytest from collecting this as a test class.)

    Everything the runtime/strategy/monitor stack can be told rides in
    this one object, validated at construction; derive variations with
    :meth:`with_overrides` (frozen configs never mutate, so sharing one
    across threads/processes is safe — forked portfolio workers inherit
    their campaign spec by value).

    Each field is declared once, below, with its default and its rule
    (:mod:`repro.testing.record`); construction-time validation (a
    ``PSharpError`` naming ``TestConfig.field``), campaign JSON and the
    checkpoint fingerprint (:func:`~repro.testing.checkpoint
    .config_fingerprint`) all read that table, and a CLI flag names the
    field it sets.  ``runtime_factory`` alone has no rule: it is live
    code, not data — never shipped, never part of the campaign identity.

    Parameters
    ----------
    program:
        What to test: a :class:`Machine` subclass, a benchmark-registry
        name or table alias (``"Raft"``, ``"2PhaseCommit"`` — the buggy
        variant, with its monitors and payload, when one exists), or a
        ``"module:Class"`` import path.
    payload:
        Payload for the main machine; ``None`` defers to the registry
        variant's payload when the target is a benchmark name.
    strategy:
        The single-strategy campaign's scheduler: a
        :class:`~repro.testing.portfolio.StrategySpec`, a CLI-style
        string (``"pct,depth=10"``), or a ``(name, params)`` tuple.
        Defaults to the random scheduler.
    specs:
        Portfolio mix for :meth:`Campaign.portfolio`; ``None`` means the
        default diverse mix sized by ``portfolio_workers``.
    seed:
        Campaign seed, folded into ``strategy``/``specs`` entries that
        are seedable and carry no explicit seed of their own.
    workers:
        ``"auto"`` (default) or ``"inline"``: both name the one carrier,
        and neither changes anything.  Kept only because the benchmark
        passes both; a ``[benchmark]`` change removes it.  The threaded
        carrier is a runtime, ``runtime_factory=ThreadedRuntime``, set
        from Python only.
    monitors:
        Specification monitor classes; empty defers to the registry
        variant's monitors when the target is a benchmark name.
    max_hot_steps / livelock_as_bug:
        Liveness temperature threshold and the legacy depth-bound
        heuristic toggle (see :class:`~repro.testing.runtime
        .BugFindingRuntime`).
    runtime_factory:
        Advanced hook for substitute runtimes (the threaded carrier
        :class:`~repro.testing.threads.ThreadedRuntime`, the CHESS
        baseline),
        used by campaigns and by replay alike.  Portfolio workers are
        forked, so they inherit it with the rest of the config.
    faults:
        A :class:`~repro.testing.faults.FaultConfig` arming deterministic
        fault injection.  ``None`` defers to the registry variant's fault
        config when the target is a benchmark name (fault-enabled
        variants like ``RaftLossy`` carry their own); pass an all-zero
        ``FaultConfig()`` to explicitly disable faults for such targets.
    iteration_timeout:
        Per-iteration wall-clock watchdog in seconds: a stuck execution
        is canceled with status ``"watchdog"`` (counted in
        ``TestReport.watchdog_hits``) and the campaign continues.
    coverage:
        Collect activity coverage (:mod:`repro.testing.coverage`): the
        campaign report carries a mergeable
        :class:`~repro.testing.coverage.CoverageMap` of states entered,
        transitions taken and events sent/dequeued/dropped, with
        declared-vs-visited deltas renderable by ``python -m repro
        report``.  Off by default (collection hooks stay dark).
    events_path:
        Path of a JSONL file to stream structured campaign events to
        (:class:`~repro.testing.telemetry.EventLog`): campaign/shard
        spans, progress, bug/watchdog/checkpoint events, worker
        heartbeats and respawns.  Appended to, multi-process safe.
    reduction:
        Schedule-space reduction mode (:mod:`repro.testing.reduction`):
        ``"none"`` (default), ``"dpor"`` (dynamic partial-order
        reduction) or ``"dpor+state-cache"`` (adds fingerprint-based
        state caching); ``"dpor+state-cache+clauses"`` is another name
        for ``"dpor+state-cache"``.  Every active mode is for the
        DFS-family strategies (``dfs``, ``iddfs``) only: the campaign
        refuses it under any other strategy before the first execution
        (``SchedulingStrategy.attach_reduction``; not here, since a
        strategy object passed to a campaign overrides ``strategy``).
        Reduction stats surface as ``TestReport.distinct_states`` /
        ``schedules_pruned``.
    state_cache_size:
        Bound on the state cache (entries; least-recently-seen states
        are evicted).  Only meaningful when ``reduction`` includes the
        state cache.
    """

    __test__ = False

    program: TargetLike = field(PROGRAM, required=True)
    payload: Any = field(PAYLOAD, None)
    strategy: StrategyLike = field(STRATEGY, None)
    specs: Optional[Tuple[StrategySpec, ...]] = field(SPECS, None)
    seed: Optional[int] = field(keep(optional(INTEGER)), None)
    max_iterations: int = field(keep(POSITIVE), 10_000)
    time_limit: Optional[float] = field(keep(optional(DURATION)), 300.0)
    max_steps: int = field(keep(POSITIVE), 20_000)
    stop_on_first_bug: bool = field(keep(FLAG), True)
    livelock_as_bug: bool = field(keep(FLAG), False)
    record_traces: bool = field(keep(FLAG), True)
    workers: str = field(keep(one_of(*WORKER_MODES)), "auto")
    monitors: Tuple[Type[Monitor], ...] = field(CLASSES)
    max_hot_steps: int = field(keep(POSITIVE), 1000)
    portfolio_workers: int = field(keep(POSITIVE), 4)
    runtime_factory: Optional[Callable[..., Any]] = None
    faults: Optional[FaultConfig] = field(FAULTS, None)
    iteration_timeout: Optional[float] = field(keep(optional(DURATION)), None)
    coverage: bool = field(keep(FLAG), False)
    events_path: Optional[str] = field(PATH, None)
    reduction: str = field(keep(one_of(*REDUCTION_MODES)), "none")
    state_cache_size: int = field(keep(POSITIVE), DEFAULT_STATE_CACHE_SIZE)

    # ------------------------------------------------------------------
    def with_overrides(self, **overrides: Any) -> "TestConfig":
        """A new validated config with ``overrides`` applied — the one
        way to vary a frozen config (`dataclasses.replace` semantics, so
        ``__post_init__`` re-validates and re-normalizes)."""
        return dataclasses.replace(self, **overrides)

    def resolve_program(self) -> Tuple[Type[Machine], Any, Tuple[type, ...]]:
        """Resolve ``program`` into ``(main_cls, payload, monitors)``.

        Registry targets contribute their variant's payload and monitors
        wherever the config does not override them; class and
        ``module:Class`` targets use the config's values as-is."""
        from ..bench.registry import resolve_target  # deferred: layer above

        variant = resolve_target(self.program)
        payload = self.payload if self.payload is not None else variant.payload
        monitors = self.monitors if self.monitors else tuple(variant.monitors)
        return variant.main, payload, monitors

    def resolved_faults(self) -> Optional[FaultConfig]:
        """The fault config this campaign actually runs with: the
        config's own ``faults`` when set (an all-zero ``FaultConfig()``
        counts as "explicitly disabled"), else the registry variant's
        default for benchmark targets, else ``None``."""
        if self.faults is not None:
            return self.faults
        from ..bench.registry import resolve_target  # deferred: layer above

        variant = resolve_target(self.program)
        return getattr(variant, "faults", None)

    def strategy_spec(self) -> StrategySpec:
        """The single-strategy campaign's spec with the campaign ``seed``
        folded in (seedable strategies without an explicit seed)."""
        return _fold_seed(self.strategy, self.seed)

    def portfolio_specs(self) -> Tuple[StrategySpec, ...]:
        """The portfolio mix this config describes — explicit ``specs``
        (campaign ``seed`` folded into seedable entries without their
        own), or the default diverse mix sized by ``portfolio_workers``."""
        if self.specs is not None:
            return tuple(_fold_seed(spec, self.seed) for spec in self.specs)
        return tuple(default_portfolio(self.portfolio_workers, self.seed))

    def build_strategy(self) -> SchedulingStrategy:
        """Construct the single-strategy campaign's scheduler."""
        return make_strategy(self.strategy_spec())

    def build_reduction(self) -> Optional[ReductionEngine]:
        """A fresh reduction engine for one campaign loop, or ``None``
        when ``reduction`` is ``"none"``."""
        if self.reduction == "none":
            return None
        return ReductionEngine(self.reduction, self.state_cache_size)

    # -- campaign JSON (versioned schema, see CONFIG_SCHEMA_VERSION) ----
    def to_json_obj(self) -> Dict[str, Any]:
        """This config as the version-``CONFIG_SCHEMA_VERSION`` campaign
        JSON object — plain data only (classes become ``"module:Class"``
        paths; a ``runtime_factory`` refuses loudly).

        Note JSON has no tuples: a tuple payload comes back as a list."""
        if self.runtime_factory is not None:
            raise PSharpError(
                "a TestConfig with a runtime_factory cannot be serialized "
                "to campaign JSON: factories are live code, not data"
            )
        return {"version": CONFIG_SCHEMA_VERSION, **self.encode()}

    def to_json(self) -> str:
        """:meth:`to_json_obj` rendered as an indented JSON document."""
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)

    def save(self, path: Union[str, "os.PathLike"]) -> None:
        """Write the campaign JSON document to ``path``, atomically."""
        write_atomic(path, self.to_json() + "\n")

    @classmethod
    def from_json_obj(cls, obj: Any) -> "TestConfig":
        """A validated config from a campaign JSON object.

        Loud on anything off-schema — a missing or foreign ``version``,
        an unknown field (typos never silently become defaults), a value
        of another type (``"no"`` is not a boolean, ``5.5`` not a count),
        an unimportable class path — with the one-line
        :class:`~repro.errors.DocumentError` naming ``TestConfig.field``."""
        if type(obj) is not dict:
            raise PSharpError(f"campaign JSON must be an object, got {describe(obj)}")
        fields = dict(obj)
        version = fields.pop("version", None)
        if version is None:
            raise PSharpError(
                "campaign JSON carries no 'version' field; this build "
                f"reads (and writes) version {CONFIG_SCHEMA_VERSION}"
            )
        if version != CONFIG_SCHEMA_VERSION:
            raise PSharpError(
                f"campaign JSON is schema version {describe(version)}; this "
                f"build reads version {CONFIG_SCHEMA_VERSION}"
            )
        return cls.decode(fields)

    @classmethod
    def from_json(cls, text: "str | bytes") -> "TestConfig":
        """A validated config from a campaign JSON document (strict JSON:
        bad UTF-8, ``NaN`` and bottomless nesting do not parse)."""
        try:
            obj = loads(text)
        except ValueError as exc:
            raise PSharpError(f"campaign JSON does not parse: {exc}") from exc
        return cls.from_json_obj(obj)

    @classmethod
    def load(cls, path: Union[str, "os.PathLike"]) -> "TestConfig":
        """Read and validate the campaign JSON file at ``path``."""
        try:
            with open(os.fspath(path), "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise PSharpError(f"cannot read campaign file: {exc}") from exc
        try:
            return cls.from_json(data)
        except PSharpError as exc:
            raise PSharpError(f"{path}: {exc}") from exc


class Campaign:
    """Execute the campaign a :class:`TestConfig` describes.

    The facade over the three execution shapes — single-strategy
    (:meth:`run`), sharded portfolio (:meth:`portfolio`) and
    deterministic reproduction (:meth:`replay`) — all speaking the same
    config vocabulary.  The last campaign report is kept on
    :attr:`last_report`, so ``campaign.run()`` followed by
    ``campaign.replay()`` reproduces the found bug with no plumbing.

    ``strategy=`` accepts a *live* strategy instance overriding the
    config's spec — the escape hatch for custom strategies that have no
    registered factory (the facade otherwise builds strategies from
    picklable :class:`~repro.testing.portfolio.StrategySpec`\\ s).
    """

    __test__ = False

    def __init__(
        self,
        config: TestConfig,
        *,
        strategy: Optional[SchedulingStrategy] = None,
    ) -> None:
        if not isinstance(config, TestConfig):
            raise PSharpError(f"Campaign needs a TestConfig, got {config!r}")
        self.config = config
        self._strategy_override = strategy
        self.last_report: Optional[TestReport] = None

    # ------------------------------------------------------------------
    def run(
        self,
        deadline: Optional[float] = None,
        stop_check: Optional[Callable[[], bool]] = None,
    ) -> TestReport:
        """Run the single-strategy campaign; returns the
        :class:`~repro.testing.engine.TestReport` (with
        ``effective_backend``, the carrier it ran on)."""
        config = self.config
        strategy = self._strategy_override or config.build_strategy()
        events = (
            EventLog(config.events_path)
            if config.events_path is not None
            else None
        )
        if events is not None:
            events.emit("campaign_start", program=str(config.program))
        try:
            report = run_campaign(
                config, strategy,
                deadline=deadline, stop_check=stop_check, events=events,
            )
        finally:
            if events is not None:
                events.emit("campaign_end")
                events.close()
        self.last_report = report
        return report

    def portfolio(
        self,
        workers: Optional[int] = None,
        *,
        checkpoint: Union[str, "os.PathLike", None] = None,
        resume: Union[str, "os.PathLike", None] = None,
    ) -> TestReport:
        """Run the sharded multi-process portfolio campaign: the fleet
        coordinator (:func:`~repro.testing.fleet.run_fleet`) with one
        local worker process per strategy spec and no listener, so the
        strategies race and each gets the whole ``time_limit``.

        ``workers`` overrides ``config.portfolio_workers`` for the
        default mix (explicit ``config.specs`` always win).

        ``checkpoint`` names a file the campaign periodically persists
        its progress to (completed shard reports + remaining shards);
        ``resume`` restarts a killed campaign from such a file, skipping
        shards whose reports were already checkpointed.  See
        :mod:`repro.testing.checkpoint`."""
        from .fleet import run_fleet  # a single campaign loads no fleet

        config = self.config
        if workers is not None:
            config = config.with_overrides(portfolio_workers=workers)
        report = run_fleet(
            config,
            local_workers=(
                len(config.specs) if config.specs is not None
                else config.portfolio_workers
            ),
            checkpoint=checkpoint,
            resume=resume,
        )
        report.strategy = "portfolio"
        self.last_report = report
        return report

    def replay(
        self,
        trace: Union[ScheduleTrace, str, "os.PathLike", None] = None,
    ) -> Optional[ExecutionResult]:
        """Deterministically re-execute a recorded schedule under this
        campaign's configuration (same program, monitors, bounds).

        ``trace`` is a live :class:`~repro.testing.trace.ScheduleTrace`,
        a trace-file path (:meth:`~repro.testing.trace.ScheduleTrace
        .save` format), or ``None`` for the last campaign's winning
        trace — in which case ``None`` is returned when that campaign
        found no bug (or recorded no trace).  A result whose
        ``diverged`` is true left the recorded schedule: it was replayed
        under a different program or different bounds than it was
        recorded with."""
        if trace is None:
            report = self.last_report
            if (
                report is None
                or report.first_bug is None
                or report.first_bug.trace is None
            ):
                return None
            trace = report.first_bug.trace
        return replay_trace(self.config, trace)


def replay(
    program: TargetLike,
    trace: Union[ScheduleTrace, str, "os.PathLike"],
    **overrides: Any,
) -> ExecutionResult:
    """Replay ``trace`` on ``program``: shorthand for
    ``Campaign(TestConfig(program, **overrides)).replay(trace)``, the
    overrides being whatever the bug was found with (``monitors``,
    ``faults``, ``max_steps``, ``max_hot_steps``, ``runtime_factory``,
    ...)."""
    return replay_trace(TestConfig(program=program, **overrides), trace)
