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
    — plus the pieces it is built from: ``BugFindingRuntime`` (and
    ``ThreadedRuntime``, the fallback carrier for handler shapes the
    coroutine compiler refuses), ``DfsStrategy``, ``IterativeDeepeningDfsStrategy``,
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

Importing the package loads the programming model and the errors only.
The tester's names above, and every subpackage, are resolved on first
attribute access (PEP 562), so a process that analyzes programs never
imports the tester and ``python -m repro test`` never imports the
analysis.
"""

from importlib import import_module as _import_module

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

#: The tester's names, resolved from :mod:`repro.testing` on first use.
_TESTING = (
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
    "ThreadedRuntime",
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
)
#: The subpackages not imported above, reachable as attributes all the same.
_SUBPACKAGES = frozenset({"analysis", "bench", "chess", "lang", "soter", "testing"})

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
    *_TESTING,
    "__version__",
]


def __getattr__(name):
    if name in _TESTING:
        value = getattr(_import_module(".testing", __name__), name)
    elif name in _SUBPACKAGES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | _SUBPACKAGES)
