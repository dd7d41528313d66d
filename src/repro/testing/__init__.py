"""Systematic concurrency testing for P# programs (Section 6.2)."""

from .checkpoint import load_checkpoint, save_checkpoint
from .coverage import CoverageMap, MachineCoverage
from .engine import TestReport, replay_trace, run_campaign
from .faults import FaultConfig
from .monitors import EMachineHalted, Monitor, cold, has_hot_states, hot
from .portfolio import (
    StrategySpec,
    default_portfolio,
    make_strategy,
    register_strategy,
    strategy_names,
)
from .config import CONFIG_SCHEMA_VERSION, Campaign, TestConfig, replay
from .fleet import (
    PROTOCOL_VERSION,
    Connection,
    ConnectionClosed,
    ProtocolError,
    connect_worker,
    run_fleet,
    worker_loop,
)
from .reduction import (
    DEFAULT_STATE_CACHE_SIZE,
    REDUCTION_MODES,
    ReductionEngine,
    normalize_reduction,
)
from .reporting import (
    coverage_dot,
    coverage_table,
    load_campaign,
    report_json,
    save_report,
)
from .telemetry import EventLog, Histogram, TelemetryStats
from .runtime import BugFindingRuntime, ExecutionResult
from .threads import ThreadedRuntime
from .strategies import (
    DelayBoundingStrategy,
    DfsStrategy,
    FairRandomStrategy,
    IterativeDeepeningDfsStrategy,
    PctStrategy,
    RandomStrategy,
    ReplayStrategy,
    SchedulingStrategy,
)
from .trace import ScheduleTrace

__all__ = [
    "TestConfig",
    "CONFIG_SCHEMA_VERSION",
    "Campaign",
    "FaultConfig",
    "run_fleet",
    "worker_loop",
    "connect_worker",
    "Connection",
    "ProtocolError",
    "ConnectionClosed",
    "PROTOCOL_VERSION",
    "load_checkpoint",
    "save_checkpoint",
    "CoverageMap",
    "MachineCoverage",
    "TelemetryStats",
    "Histogram",
    "EventLog",
    "save_report",
    "load_campaign",
    "coverage_table",
    "report_json",
    "coverage_dot",
    "ReductionEngine",
    "REDUCTION_MODES",
    "DEFAULT_STATE_CACHE_SIZE",
    "normalize_reduction",
    "TestReport",
    "run_campaign",
    "replay",
    "replay_trace",
    "Monitor",
    "EMachineHalted",
    "hot",
    "cold",
    "has_hot_states",
    "StrategySpec",
    "default_portfolio",
    "make_strategy",
    "register_strategy",
    "strategy_names",
    "BugFindingRuntime",
    "ExecutionResult",
    "ThreadedRuntime",
    "SchedulingStrategy",
    "DfsStrategy",
    "IterativeDeepeningDfsStrategy",
    "RandomStrategy",
    "FairRandomStrategy",
    "ReplayStrategy",
    "PctStrategy",
    "DelayBoundingStrategy",
    "ScheduleTrace",
]
