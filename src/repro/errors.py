"""Error and bug-report types shared across the runtime, testing and analysis layers.

The P# paper distinguishes three classes of runtime errors (Section 6.1):

(i)   an event can be handled in more than one way in the same state,
(ii)  an event cannot be handled in a state, and
(iii) an uncaught exception is thrown while an event handler executes.

In bug-finding mode (Section 6.2) these, together with assertion failures
and liveness (depth-bound) violations, are reported as bugs with a replayable
schedule trace attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


class PSharpError(Exception):
    """Base class for all errors raised by this library."""


class DocumentError(PSharpError, ValueError):
    """A document (a ``result`` frame's ``report``, a checkpoint entry, a
    report file, a campaign file) — or a value handed to a configuration
    class's constructor — does not match the schema its class declares
    (:mod:`repro.testing.record`).  The message names the offending
    ``Class.field``; readers turn it into their own boundary's error — a
    protocol error on the wire, exit 2 on a file."""


class MachineDeclarationError(PSharpError):
    """A machine class is malformed.

    Raised at class-definition time, e.g. when a state declares two handlers
    for the same event (paper error class (i)), when an action binding names
    a method that does not exist, or when a machine has no initial state.
    """


class UnhandledEventError(PSharpError):
    """An event reached a machine state that neither handles, defers nor
    ignores it (paper error class (ii))."""

    def __init__(self, machine: Any, state: str, event: Any) -> None:
        self.machine = machine
        self.state = state
        self.event = event
        super().__init__(
            f"machine {machine} in state {state!r} cannot handle event "
            f"{type(event).__name__}"
        )


class AssertionFailure(PSharpError):
    """A ``Machine.assert_that`` condition evaluated to false."""


class ActionError(PSharpError):
    """An uncaught exception escaped a user action (paper error class (iii))."""

    def __init__(self, machine: Any, action: str, cause: BaseException) -> None:
        self.machine = machine
        self.action = action
        self.cause = cause
        super().__init__(
            f"uncaught exception in action {action!r} of machine {machine}: "
            f"{type(cause).__name__}: {cause}"
        )


class LivenessError(PSharpError):
    """A liveness violation: either a specification monitor stayed hot
    beyond the temperature threshold (or was hot at program termination),
    or — the legacy heuristic of Section 7.2.2 — the depth bound was
    exceeded under a fair schedule.

    Carries enough structure for actionable reports: the offending
    ``monitor`` name and its hot ``state`` (temperature detection), the
    last scheduled ``machine`` (depth-bound detection), and the ``step``
    count at which the violation was declared.
    """

    def __init__(
        self,
        message: str,
        *,
        monitor: Optional[str] = None,
        state: Optional[str] = None,
        machine: Optional[Any] = None,
        step: int = -1,
    ) -> None:
        super().__init__(message)
        self.monitor = monitor
        self.state = state
        self.machine = machine
        self.step = step


class MonitorError(PSharpError):
    """A safety specification monitor's assertion failed.

    Wraps the underlying :class:`AssertionFailure` so monitor-detected
    violations are reported distinctly (bug kind ``"monitor"``) from
    in-program assertions, with the monitor and its current state named.
    """

    def __init__(self, monitor: Any, message: str) -> None:
        self.monitor = monitor
        self.state = getattr(monitor, "current_state", None)
        super().__init__(
            f"specification monitor {type(monitor).__name__} "
            f"(state {self.state!r}) violated: {message}"
        )


class ExecutionCanceled(BaseException):
    """Internal control-flow exception used by the bug-finding runtime to
    unwind cooperative worker threads when an execution ends.

    Derives from ``BaseException`` so that user code catching ``Exception``
    cannot swallow it.
    """


@dataclass
class BugReport:
    """A bug found during testing, with enough information to replay it.

    It has two forms.  The live one, ``ExecutionResult.bug``, holds the
    raised exception and the machine object.  Everything a campaign
    hands back — ``TestReport.bugs`` and ``first_bug``, in process as on
    the wire — holds the :meth:`detached` one, made when the bug is
    recorded.
    """

    kind: str
    message: str
    machine: Optional[Any] = None
    trace: Optional[Any] = None
    exception: Optional[BaseException] = None
    iteration: int = -1
    step: int = -1

    def __str__(self) -> str:
        where = f" in {self.machine}" if self.machine is not None else ""
        return f"[{self.kind}]{where}: {self.message}"

    def detached(self) -> "BugReport":
        """A plain-data copy, the form a bug has on the wire and on disk.

        Live references are dropped (the machine object becomes its
        string form, the raised exception is not kept); the schedule
        trace — the part that matters for replay — is plain data, frozen
        once its execution ended, and survives as is.
        """
        return BugReport(
            kind=self.kind,
            message=self.message,
            machine=str(self.machine) if self.machine is not None else None,
            trace=self.trace,
            exception=None,
            iteration=self.iteration,
            step=self.step,
        )


@dataclass
class AnalysisDiagnostic:
    """A diagnostic produced by the static data race analysis."""

    kind: str  # "ownership-violation" | "info"
    machine: str
    method: str
    node: Any
    variable: str
    condition: int  # which of the three Section 5.3 conditions failed (1..3)
    message: str
    suppressed_by: Optional[str] = None  # "xsa" | "readonly" | None

    def __str__(self) -> str:
        sup = f" (suppressed by {self.suppressed_by})" if self.suppressed_by else ""
        return (
            f"{self.machine}.{self.method}: condition {self.condition} violated "
            f"for {self.variable!r} at {self.node}: {self.message}{sup}"
        )


@dataclass
class AnalysisReport:
    """Aggregate result of analysing one program."""

    program: str
    diagnostics: list = field(default_factory=list)
    xsa_enabled: bool = False
    readonly_enabled: bool = False
    seconds: float = 0.0
    phase_seconds: dict = field(default_factory=dict)  # phase -> seconds
    solver_counters: dict = field(default_factory=dict)  # exact, repeatable

    @property
    def violations(self) -> list:
        return [d for d in self.diagnostics if d.suppressed_by is None]

    @property
    def verified(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        status = "verified race-free" if self.verified else (
            f"{len(self.violations)} potential race(s)"
        )
        return f"analysis of {self.program}: {status} in {self.seconds:.3f}s"

    def summary(self) -> str:
        """The verdict line, then where the time went and what the taint
        solver did for it."""
        lines = [str(self)]
        if self.phase_seconds:
            lines.append(
                "  phases: "
                + "  ".join(f"{k} {v * 1e3:.1f}ms" for k, v in self.phase_seconds.items())
            )
        if self.solver_counters:
            lines.append(
                "  solver: "
                + "  ".join(f"{k.replace('_', ' ')} {v}" for k, v in self.solver_counters.items())
            )
        return "\n".join(lines)
