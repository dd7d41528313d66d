"""Test-only oracle: the hand-written campaign-JSON codec and checkpoint
fingerprint the field tables replaced, kept as they were.

Until PR 21 ``TestConfig`` spelled its fields out in ``_JSON_FIELDS``, in
the literal dict of ``to_json_obj``, in ``from_json_obj``'s ladder and in
``config_fingerprint``'s hand-picked tuple (and ``FaultConfig`` /
``StrategySpec`` theirs).  They now declare each field once with its rule
(:mod:`repro.testing.record`) and derive all of it.  The bodies below are
the deleted code verbatim — ``self`` / ``cls`` became the first argument,
``StrategySpec.to_obj`` / ``from_obj`` became ``spec_to_obj`` /
``spec_from_obj``; nothing else changed, but for the lines of the local
workers' start-method field, deleted from both codecs together with the
field (campaign JSON version 2).  ``tests/test_campaign_schema.py``
holds the table-driven codec against them on generated configs (the
``reference_report.py`` / ``reference_taint.py`` pattern).
"""

import hashlib
import importlib
import json
from typing import Any, Dict

from repro.errors import PSharpError
from repro.testing.config import CONFIG_SCHEMA_VERSION
from repro.testing.faults import FaultConfig
from repro.testing.portfolio import StrategySpec
from repro.testing.record import describe

# -- config.py --------------------------------------------------------------
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


# -- portfolio.py (StrategySpec.to_obj / from_obj) --------------------------
def spec_to_obj(self) -> Dict[str, Any]:
    """The one wire form of a spec — campaign JSON, ``work`` frames
    and checkpoints all carry ``{"name", "params"}``."""
    return {"name": self.name, "params": dict(self.params)}


def spec_from_obj(value: Any, where: str) -> StrategySpec:
    """The spec a wire form describes: the ``{"name", "params"}``
    object, or the CLI spelling (``"pct,depth=10"``).  ``where`` names
    the place in the error (``"campaign JSON 'strategy'"``)."""
    if isinstance(value, str):
        return StrategySpec.parse(value)
    fields = value if isinstance(value, dict) else {}
    unknown = sorted(map(repr, fields.keys() - {"name", "params"}))
    if unknown:
        raise PSharpError(
            f"unknown field(s) in {where}: {', '.join(unknown)}; a "
            "strategy object carries only 'name' and 'params'"
        )
    params = fields.get("params") or {}
    if not (isinstance(fields.get("name"), str) and isinstance(params, dict)):
        raise PSharpError(
            f"{where} must be a 'name,key=value' string or an object with "
            f"a string 'name' and an object 'params', got {describe(value)}"
        )
    return StrategySpec(fields["name"], dict(params))


# -- config.py, continued ---------------------------------------------------
def _spec_to_obj(spec: StrategySpec) -> Dict[str, Any]:
    return _json_value(f"strategy {spec.label()!r} params", spec_to_obj(spec))


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
        "faults": faults,
        "iteration_timeout": self.iteration_timeout,
        "coverage": self.coverage,
        "events_path": self.events_path,
        "reduction": self.reduction,
        "state_cache_size": self.state_cache_size,
    }


def from_json_obj(cls, obj: Any):
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
        kwargs["strategy"] = spec_from_obj(
            kwargs["strategy"], "campaign JSON 'strategy'"
        )
    if kwargs.get("specs") is not None:
        if not isinstance(kwargs["specs"], list):
            raise PSharpError(
                "campaign JSON 'specs' must be a list (or null), got "
                f"{kwargs['specs']!r}"
            )
        kwargs["specs"] = tuple(
            spec_from_obj(entry, f"campaign JSON 'specs[{index}]'")
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


# -- checkpoint.py ----------------------------------------------------------
def config_fingerprint(config) -> str:
    """A stable digest of the campaign identity a checkpoint belongs to.

    Covers the program spelling and the budget knobs that define what a
    "completed shard" means — not the strategy mix itself, which is
    materialized once at campaign start and carried *inside* the
    checkpoint (the default mix draws fresh random seeds per call, so it
    must be reused verbatim on resume, not regenerated)."""
    program = config.program
    if not isinstance(program, str):
        program = f"{program.__module__}:{program.__qualname__}"
    key = repr(
        (
            program,
            config.seed,
            config.max_iterations,
            config.max_steps,
            config.stop_on_first_bug,
            config.workers,
            config.faults,
            # Coverage collection changes what a shard's report carries;
            # resuming a plain campaign from a coverage checkpoint (or
            # vice versa) would merge maps with holes.
            config.coverage,
        )
    )
    return hashlib.sha256(key.encode("utf-8")).hexdigest()
