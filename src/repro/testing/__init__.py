"""Systematic concurrency testing for P# programs (Section 6.2).

The package surface is one table, :data:`_SOURCES`, from each public
name to the submodule that defines it.  Nothing is imported until a name
is used (PEP 562): ``from repro.testing import TestConfig`` loads the
campaign layer and what it needs, not the fleet, the checkpoint codec or
the report writers, and a single campaign never maps ``multiprocessing``
or ``socket``.  Submodules stay reachable as attributes
(``repro.testing.fleet``); an unknown name raises ``AttributeError``.
"""

from importlib import import_module as _import_module

#: Public name -> the submodule that defines it (``__all__`` order).
_SOURCES = {
    "TestConfig": "config",
    "CONFIG_SCHEMA_VERSION": "config",
    "Campaign": "config",
    "FaultConfig": "faults",
    "run_fleet": "fleet",
    "worker_loop": "fleet",
    "connect_worker": "fleet",
    "Connection": "fleet",
    "ProtocolError": "fleet",
    "ConnectionClosed": "fleet",
    "PROTOCOL_VERSION": "fleet",
    "load_checkpoint": "checkpoint",
    "save_checkpoint": "checkpoint",
    "CoverageMap": "coverage",
    "MachineCoverage": "coverage",
    "TelemetryStats": "telemetry",
    "Histogram": "telemetry",
    "EventLog": "telemetry",
    "save_report": "reporting",
    "load_campaign": "reporting",
    "coverage_table": "reporting",
    "coverage_dot": "reporting",
    "ReductionEngine": "reduction",
    "REDUCTION_MODES": "reduction",
    "DEFAULT_STATE_CACHE_SIZE": "reduction",
    "normalize_reduction": "reduction",
    "TestReport": "engine",
    "run_campaign": "engine",
    "replay": "config",
    "replay_trace": "engine",
    "Monitor": "monitors",
    "EMachineHalted": "monitors",
    "hot": "monitors",
    "cold": "monitors",
    "has_hot_states": "monitors",
    "StrategySpec": "portfolio",
    "default_portfolio": "portfolio",
    "make_strategy": "portfolio",
    "register_strategy": "portfolio",
    "strategy_names": "portfolio",
    "BugFindingRuntime": "runtime",
    "ExecutionResult": "runtime",
    "ThreadedRuntime": "threads",
    "SchedulingStrategy": "strategies",
    "DfsStrategy": "strategies",
    "IterativeDeepeningDfsStrategy": "strategies",
    "RandomStrategy": "strategies",
    "FairRandomStrategy": "strategies",
    "ReplayStrategy": "strategies",
    "PctStrategy": "strategies",
    "DelayBoundingStrategy": "strategies",
    "ScheduleTrace": "trace",
}
#: Every submodule, reachable as an attribute of the package.
_SUBMODULES = frozenset(_SOURCES.values()) | {"record"}

__all__ = list(_SOURCES)


def __getattr__(name):
    if name in _SOURCES:
        value = getattr(_import_module(f".{_SOURCES[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBMODULES)
