"""repro: a Python reproduction of P# — asynchronous programming, analysis
and testing with state machines (Deligiannis et al., PLDI 2015).

Public API overview
-------------------

Programming model (:mod:`repro.core`):
    ``Machine``, ``State``, ``Event``, ``Halt``, ``MachineId``, ``Runtime``

Systematic concurrency testing (:mod:`repro.testing`):
    ``TestConfig`` + ``Campaign`` — the declarative campaign facade (one
    frozen config over runtime, strategies and monitors; also the core
    of the ``python -m repro`` command-line tester: ``.run()``,
    ``.portfolio()`` for the parallel strategy portfolio, ``.replay()``)
    — plus the pieces it is built from: ``BugFindingRuntime``,
    ``DfsStrategy``, ``IterativeDeepeningDfsStrategy``,
    ``RandomStrategy``, ``FairRandomStrategy``, ``ReplayStrategy``,
    ``PctStrategy``, ``DelayBoundingStrategy``, ``StrategySpec``,
    ``replay``

Specifications (:mod:`repro.testing.monitors`):
    ``Monitor`` (safety/liveness specification machines), ``hot`` /
    ``cold`` state markers, ``EMachineHalted`` — liveness livelocks are
    detected via hot-state temperature under fair schedules

Static data race analysis (:mod:`repro.analysis`):
    ``analyze_program``, ``analyze_machines`` — the ownership-based
    analysis of Section 5, including cross-state analysis (xSA) and the
    read-only extension.

Core calculus (:mod:`repro.lang`):
    the paper's Figure 2 language, its operational semantics (Figures 3-4)
    and a dynamic race detector.

Baselines: :mod:`repro.chess` (CHESS-style SCT) and :mod:`repro.soter`
(SOTER-style ownership inference).  Benchmarks: :mod:`repro.bench`.
"""

from .core import (
    Event,
    Halt,
    Machine,
    MachineId,
    Runtime,
    State,
    machine_statistics,
    program_statistics,
)
from .errors import (
    ActionError,
    AnalysisDiagnostic,
    AnalysisReport,
    AssertionFailure,
    BugReport,
    LivenessError,
    MachineDeclarationError,
    MonitorError,
    PSharpError,
    UnhandledEventError,
)
from .testing import (
    BugFindingRuntime,
    Campaign,
    TestConfig,
    FaultConfig,
    DelayBoundingStrategy,
    DfsStrategy,
    EMachineHalted,
    ExecutionResult,
    FairRandomStrategy,
    IterativeDeepeningDfsStrategy,
    Monitor,
    PctStrategy,
    RandomStrategy,
    ReplayStrategy,
    ScheduleTrace,
    StrategySpec,
    TestReport,
    cold,
    default_portfolio,
    hot,
    make_strategy,
    register_strategy,
    replay,
    run_fleet,
)

__version__ = "1.0.0"

__all__ = [
    "Event",
    "Halt",
    "Machine",
    "MachineId",
    "Runtime",
    "State",
    "machine_statistics",
    "program_statistics",
    "PSharpError",
    "MachineDeclarationError",
    "UnhandledEventError",
    "AssertionFailure",
    "ActionError",
    "LivenessError",
    "MonitorError",
    "BugReport",
    "AnalysisDiagnostic",
    "AnalysisReport",
    "TestConfig",
    "Campaign",
    "FaultConfig",
    "TestReport",
    "run_fleet",
    "StrategySpec",
    "default_portfolio",
    "make_strategy",
    "register_strategy",
    "BugFindingRuntime",
    "ExecutionResult",
    "DfsStrategy",
    "IterativeDeepeningDfsStrategy",
    "RandomStrategy",
    "FairRandomStrategy",
    "ReplayStrategy",
    "PctStrategy",
    "DelayBoundingStrategy",
    "ScheduleTrace",
    "Monitor",
    "EMachineHalted",
    "hot",
    "cold",
    "replay",
    "__version__",
]
