"""The declarative campaign facade: :class:`TestConfig` + :class:`Campaign`.

P# exposes one coherent tester surface — a configuration object plus a
command-line tester — over its runtime, strategies and monitors
(Section 7).  This module is that surface for the reproduction: a single
frozen, picklable :class:`TestConfig` captures the *complete* campaign
specification (program target, strategy spec(s), iteration/time/step
budgets, worker back-end, specification monitors, liveness threshold,
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
campaign JSON to fleet workers on the wire — so a new knob lands here
(field, validation, JSON) and in the engine's one runtime builder,
nowhere else.  The ``python -m repro`` CLI
(:mod:`repro.__main__`) is built entirely on this module.

``workers="auto"`` is the default back-end: campaigns run on the
single-thread inline continuation runtime whenever the program compiles
for it and transparently fall back to pooled threads when it does not
(``InlineCompileError``), with the resolved choice recorded as
``TestReport.effective_backend`` — every facade user inherits the
inline speedup without opting in.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple, Type, Union

from ..core.machine import Machine
from ..errors import PSharpError
from .engine import TestReport, replay_trace, run_campaign
from .faults import FaultConfig
from .fleet import run_fleet
from .reduction import DEFAULT_STATE_CACHE_SIZE, normalize_reduction
from .monitors import Monitor
from .portfolio import (
    _SEEDED,
    StrategySpec,
    default_portfolio,
    make_strategy,
)
from .record import write_atomic
from .runtime import ExecutionResult
from .strategies import SchedulingStrategy
from .telemetry import EventLog
from .trace import ScheduleTrace

#: carriers a config may name; "auto" resolves per program.
WORKER_MODES = ("auto", "inline", "pool")

StrategyLike = Union[StrategySpec, str, Tuple[str, dict], None]
TargetLike = Union[str, Type[Machine]]


def _normalize_strategy(value: StrategyLike) -> StrategySpec:
    """Coerce the accepted strategy spellings into a :class:`StrategySpec`.

    Deliberately does NOT fold the campaign seed in: the config stores
    the user's spelling so "was a seed explicitly given?" survives
    ``with_overrides`` re-validation — folding happens at build time
    (:func:`_fold_seed`)."""
    if value is None:
        return StrategySpec("random")
    if isinstance(value, StrategySpec):
        return value
    if isinstance(value, str):
        return StrategySpec.parse(value)
    if isinstance(value, tuple) and len(value) == 2:
        return StrategySpec(value[0], dict(value[1]))
    raise PSharpError(
        "strategy must be a StrategySpec, a name like 'pct,depth=10', "
        f"or a (name, params) tuple, got {value!r}"
    )


def _fold_seed(spec: StrategySpec, seed: Optional[int]) -> StrategySpec:
    """The campaign ``seed`` applied to one spec: seedable strategies
    without an explicit seed of their own inherit it."""
    if seed is not None and spec.name in _SEEDED and "seed" not in spec.params:
        return StrategySpec(spec.name, {**spec.params, "seed": seed})
    return spec


# ----------------------------------------------------------------------
# Campaign JSON: the versioned on-disk / on-wire schema (docs/protocol.md
# §"config" and docs/cli.md "Campaign files").  A campaign is one
# shippable artifact: ``config.save("campaign.json")`` then
# ``python -m repro test --config campaign.json`` (or ``serve``, which
# streams the same object to every fleet worker in its welcome message).

#: Bumped whenever the campaign JSON schema changes incompatibly; a
#: reader only accepts files carrying exactly the version it speaks.
CONFIG_SCHEMA_VERSION = 1

#: Every field a version-1 campaign file may carry besides ``version``.
#: ``runtime_factory`` is deliberately absent: factories are live code,
#: not data, and a config carrying one refuses to serialize.
_JSON_FIELDS = (
    "program",
    "payload",
    "strategy",
    "specs",
    "seed",
    "max_iterations",
    "time_limit",
    "max_steps",
    "stop_on_first_bug",
    "livelock_as_bug",
    "record_traces",
    "workers",
    "monitors",
    "max_hot_steps",
    "portfolio_workers",
    "start_method",
    "faults",
    "iteration_timeout",
    "coverage",
    "events_path",
    "reduction",
    "state_cache_size",
)

_FAULT_JSON_FIELDS = (
    "drop",
    "duplicate",
    "delay",
    "crash",
    "persistent_state",
    "max_faults",
    "crash_classes",
)


def _class_path(cls: type, what: str) -> str:
    """``cls`` as the importable ``"module:qualname"`` path campaign JSON
    stores classes by — refused loudly when the name would not resolve
    from another process (``__main__`` classes, closures)."""
    path = f"{cls.__module__}:{cls.__qualname__}"
    if cls.__module__ == "__main__" or "<locals>" in cls.__qualname__:
        raise PSharpError(
            f"{what} {path!r} cannot be serialized to campaign JSON: the "
            "name is not importable from another process (define it in a "
            "module, not __main__ or a function body)"
        )
    return path


def _import_class(path: Any, what: str) -> type:
    """Resolve a campaign-JSON ``"module:Class"`` reference, loudly."""
    module_name, sep, qualname = str(path).partition(":")
    if not sep or not module_name or not qualname:
        raise PSharpError(
            f"{what} {path!r} in campaign JSON must be an importable "
            "'module:Class' path"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise PSharpError(f"cannot import {what} {path!r}: {exc}") from exc
    obj: Any = module
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            raise PSharpError(
                f"cannot import {what} {path!r}: module {module_name!r} "
                f"has no attribute {qualname!r}"
            )
    if not isinstance(obj, type):
        raise PSharpError(f"{what} {path!r} resolved to {obj!r}, not a class")
    return obj


def _json_value(name: str, value: Any) -> Any:
    """``value`` if it survives JSON encoding; a loud error otherwise —
    campaign files carry plain data, never pickles."""
    try:
        json.dumps(value)
    except (TypeError, ValueError) as exc:
        raise PSharpError(
            f"TestConfig.{name} is not JSON-serializable ({exc}); campaign "
            "JSON carries plain data only"
        ) from exc
    return value


def _spec_to_obj(spec: StrategySpec) -> Dict[str, Any]:
    return _json_value(f"strategy {spec.label()!r} params", spec.to_obj())


@dataclass(frozen=True)
class TestConfig:
    """One frozen, picklable description of a whole testing campaign.

    (``__test__`` keeps pytest from collecting this as a test class.)

    Everything the runtime/strategy/monitor stack can be told rides in
    this one object, validated at construction; derive variations with
    :meth:`with_overrides` (frozen configs never mutate, so sharing one
    across threads/processes is safe — picklability is what lets
    portfolio workers receive their campaign spec by value).

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
        Worker back-end: ``"auto"`` (default — inline continuation
        runtime with transparent pooled fallback), ``"inline"`` or
        ``"pool"``.
    monitors:
        Specification monitor classes; empty defers to the registry
        variant's monitors when the target is a benchmark name.
    max_hot_steps / livelock_as_bug:
        Liveness temperature threshold and the legacy depth-bound
        heuristic toggle (see :class:`~repro.testing.runtime
        .BugFindingRuntime`).
    runtime_factory:
        Advanced hook for substitute runtimes (e.g. the CHESS baseline),
        used by campaigns and by replay alike; note a non-module-level
        factory makes the config unpicklable (it crosses the process
        boundary to portfolio workers under the ``spawn``/``forkserver``
        start methods).
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
        reduction on the DFS-family strategies), ``"dpor+state-cache"``
        (adds fingerprint-based state caching for every strategy), or
        ``"dpor+state-cache+clauses"`` (additionally learns prefix
        clauses from cache hits).  Reduction stats surface as
        ``TestReport.distinct_states`` / ``schedules_pruned``.
    state_cache_size:
        Bound on the state cache (entries; least-recently-seen states
        are evicted).  Only meaningful when ``reduction`` includes the
        state cache.
    """

    __test__ = False

    program: TargetLike
    payload: Any = None
    strategy: StrategyLike = None
    specs: Optional[Tuple[StrategySpec, ...]] = None
    seed: Optional[int] = None
    max_iterations: int = 10_000
    time_limit: Optional[float] = 300.0
    max_steps: int = 20_000
    stop_on_first_bug: bool = True
    livelock_as_bug: bool = False
    record_traces: bool = True
    workers: str = "auto"
    monitors: Tuple[Type[Monitor], ...] = ()
    max_hot_steps: int = 1000
    portfolio_workers: int = 4
    start_method: Optional[str] = None
    runtime_factory: Optional[Callable[..., Any]] = None
    faults: Optional[FaultConfig] = None
    iteration_timeout: Optional[float] = None
    coverage: bool = False
    events_path: Optional[str] = None
    reduction: str = "none"
    state_cache_size: int = DEFAULT_STATE_CACHE_SIZE

    def __post_init__(self) -> None:
        if not (
            isinstance(self.program, str)
            or (isinstance(self.program, type) and issubclass(self.program, Machine))
        ):
            raise PSharpError(
                "program must be a Machine subclass, a benchmark name, or "
                f"'module:Class', got {self.program!r}"
            )
        object.__setattr__(self, "strategy", _normalize_strategy(self.strategy))
        if self.specs is not None:
            normalized = tuple(_normalize_strategy(spec) for spec in self.specs)
            if not normalized:
                raise PSharpError("specs must name at least one strategy")
            object.__setattr__(self, "specs", normalized)
        object.__setattr__(self, "monitors", tuple(self.monitors))
        if self.workers not in WORKER_MODES:
            raise PSharpError(
                f"workers must be one of {', '.join(WORKER_MODES)}, "
                f"got {self.workers!r}"
            )
        if self.max_iterations < 1:
            raise PSharpError("max_iterations must be >= 1")
        if self.max_steps < 1:
            raise PSharpError("max_steps must be >= 1")
        if self.time_limit is not None and self.time_limit <= 0:
            raise PSharpError("time_limit must be positive (or None)")
        if self.max_hot_steps < 1:
            raise PSharpError("max_hot_steps must be >= 1")
        if self.portfolio_workers < 1:
            raise PSharpError("portfolio_workers must be >= 1")
        if self.faults is not None and not isinstance(self.faults, FaultConfig):
            raise PSharpError(
                f"faults must be a FaultConfig (or None), got {self.faults!r}"
            )
        if self.iteration_timeout is not None and self.iteration_timeout <= 0:
            raise PSharpError("iteration_timeout must be positive (or None)")
        object.__setattr__(self, "coverage", bool(self.coverage))
        object.__setattr__(self, "reduction", normalize_reduction(self.reduction))
        if not isinstance(self.state_cache_size, int) or self.state_cache_size < 1:
            raise PSharpError(
                f"state_cache_size must be a positive integer, got "
                f"{self.state_cache_size!r}"
            )
        if self.events_path is not None:
            object.__setattr__(self, "events_path", os.fspath(self.events_path))

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
        program = (
            self.program
            if isinstance(self.program, str)
            else _class_path(self.program, "program")
        )
        faults = None
        if self.faults is not None:
            faults = {
                "drop": self.faults.drop,
                "duplicate": self.faults.duplicate,
                "delay": self.faults.delay,
                "crash": self.faults.crash,
                "persistent_state": self.faults.persistent_state,
                "max_faults": self.faults.max_faults,
                "crash_classes": [
                    _class_path(cls, "crash_classes entry")
                    for cls in self.faults.crash_classes
                ],
            }
        return {
            "version": CONFIG_SCHEMA_VERSION,
            "program": program,
            "payload": _json_value("payload", self.payload),
            "strategy": _spec_to_obj(self.strategy),
            "specs": (
                [_spec_to_obj(spec) for spec in self.specs]
                if self.specs is not None
                else None
            ),
            "seed": self.seed,
            "max_iterations": self.max_iterations,
            "time_limit": self.time_limit,
            "max_steps": self.max_steps,
            "stop_on_first_bug": self.stop_on_first_bug,
            "livelock_as_bug": self.livelock_as_bug,
            "record_traces": self.record_traces,
            "workers": self.workers,
            "monitors": [_class_path(m, "monitor") for m in self.monitors],
            "max_hot_steps": self.max_hot_steps,
            "portfolio_workers": self.portfolio_workers,
            "start_method": self.start_method,
            "faults": faults,
            "iteration_timeout": self.iteration_timeout,
            "coverage": self.coverage,
            "events_path": self.events_path,
            "reduction": self.reduction,
            "state_cache_size": self.state_cache_size,
        }

    def to_json(self) -> str:
        """:meth:`to_json_obj` rendered as an indented JSON document."""
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)

    def save(self, path: Union[str, "os.PathLike"]) -> None:
        """Write the campaign JSON document to ``path``, atomically."""
        write_atomic(path, self.to_json() + "\n")

    @classmethod
    def from_json_obj(cls, obj: Any) -> "TestConfig":
        """A validated config from a campaign JSON object.

        Loud on anything off-schema: a missing or foreign ``version``,
        unknown fields (typos never silently become defaults), malformed
        strategy/fault entries, unimportable class paths."""
        if not isinstance(obj, dict):
            raise PSharpError(
                f"campaign JSON must be an object, got {type(obj).__name__}"
            )
        version = obj.get("version")
        if version is None:
            raise PSharpError(
                "campaign JSON carries no 'version' field; this build "
                f"reads (and writes) version {CONFIG_SCHEMA_VERSION}"
            )
        if version != CONFIG_SCHEMA_VERSION:
            raise PSharpError(
                f"campaign JSON is schema version {version!r}; this build "
                f"reads version {CONFIG_SCHEMA_VERSION}"
            )
        unknown = sorted(set(obj) - {"version", *_JSON_FIELDS})
        if unknown:
            raise PSharpError(
                "unknown field(s) in campaign JSON: "
                + ", ".join(repr(f) for f in unknown)
                + "; known fields: version, "
                + ", ".join(_JSON_FIELDS)
            )
        if "program" not in obj:
            raise PSharpError("campaign JSON must name a 'program'")
        kwargs: Dict[str, Any] = {
            key: obj[key] for key in _JSON_FIELDS if key in obj
        }
        if kwargs.get("strategy") is not None:
            kwargs["strategy"] = StrategySpec.from_obj(
                kwargs["strategy"], "campaign JSON 'strategy'"
            )
        if kwargs.get("specs") is not None:
            if not isinstance(kwargs["specs"], list):
                raise PSharpError(
                    "campaign JSON 'specs' must be a list (or null), got "
                    f"{kwargs['specs']!r}"
                )
            kwargs["specs"] = tuple(
                StrategySpec.from_obj(entry, f"campaign JSON 'specs[{index}]'")
                for index, entry in enumerate(kwargs["specs"])
            )
        if kwargs.get("monitors"):
            if not isinstance(kwargs["monitors"], list):
                raise PSharpError(
                    "campaign JSON 'monitors' must be a list of "
                    f"'module:Class' paths, got {kwargs['monitors']!r}"
                )
            kwargs["monitors"] = tuple(
                _import_class(path, "monitor") for path in kwargs["monitors"]
            )
        if kwargs.get("faults") is not None:
            fobj = kwargs["faults"]
            if not isinstance(fobj, dict):
                raise PSharpError(
                    f"campaign JSON 'faults' must be an object, got {fobj!r}"
                )
            unknown = sorted(set(fobj) - set(_FAULT_JSON_FIELDS))
            if unknown:
                raise PSharpError(
                    "unknown field(s) in campaign JSON 'faults': "
                    + ", ".join(repr(f) for f in unknown)
                    + "; known fields: " + ", ".join(_FAULT_JSON_FIELDS)
                )
            fkwargs = dict(fobj)
            if fkwargs.get("crash_classes"):
                fkwargs["crash_classes"] = tuple(
                    _import_class(path, "crash_classes entry")
                    for path in fkwargs["crash_classes"]
                )
            try:
                kwargs["faults"] = FaultConfig(**fkwargs)
            except (TypeError, ValueError) as exc:
                raise PSharpError(
                    f"invalid 'faults' in campaign JSON: {exc}"
                ) from exc
        try:
            return cls(**kwargs)
        except TypeError as exc:
            # e.g. a string where __post_init__'s range checks expect a
            # number — surface it as the usual loud config error.
            raise PSharpError(f"invalid campaign JSON: {exc}") from exc

    @classmethod
    def from_json(cls, text: str) -> "TestConfig":
        """A validated config from a campaign JSON document."""
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PSharpError(f"campaign JSON does not parse: {exc}") from exc
        return cls.from_json_obj(obj)

    @classmethod
    def load(cls, path: Union[str, "os.PathLike"]) -> "TestConfig":
        """Read and validate the campaign JSON file at ``path``."""
        try:
            with open(os.fspath(path), "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise PSharpError(f"cannot read campaign file: {exc}") from exc
        try:
            return cls.from_json(text)
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
        ``effective_backend`` resolved from ``workers="auto"``)."""
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
