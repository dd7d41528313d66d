"""Deterministic fault injection: faults as controlled nondeterminism.

The P# paper's flagship case studies found bugs in *fault-tolerant*
protocols precisely because the tester modeled node failures and message
losses as nondeterministic choices under the scheduler's control —
"modeling failures nondeterministically" is what let the extinction
protocol and live-table-migration bugs surface (Sections 2 and 7).  This
module provides the configuration surface for that idea: a frozen
:class:`FaultConfig` describing which faults the tester may inject and how
often, attached to a :class:`~repro.testing.config.TestConfig` (or a
benchmark registry :class:`~repro.bench.registry.Variant`).

Every injected fault is a *strategy decision*, recorded in the
:class:`~repro.testing.trace.ScheduleTrace` under the ``"fault"`` kind, so
a faulty execution replays bit-identically: ``ReplayStrategy`` re-fires
exactly the recorded faults and never invents new ones.

Four fault kinds are supported:

``drop``
    A sent message is lost in transit (the monitor mirror still observes
    the send — specifications watch machine *actions*, not the network).
``duplicate``
    A sent message is delivered twice.
``delay``
    A sent message overtakes the previously queued message (pairwise
    reordering of the target's inbox).
``crash``
    The currently scheduled machine crash-restarts between two steps: its
    inbox and volatile fields are wiped, fields named in the machine's
    ``persistent_fields`` survive (when ``persistent_state`` is true), and
    the machine re-enters its initial state with its original creation
    payload — the P# model of a node rebooting from durable storage.

Probabilities are interpreted per decision point by the active strategy
(randomized strategies draw from their seeded RNG; DFS enumerates both
branches systematically), quantized to permille so the decision weights
are integers on the hot path.
"""

from __future__ import annotations

from typing import Tuple

from .record import CLASSES, COUNT, FLAG, PROBABILITY, Declared, field, keep, record

#: Probability quantization: fault weights are integers in [0, FAULT_SCALE]
#: (permille).  Strategies compare a draw against the weight.
FAULT_SCALE = 1000

# Fault outcome codes, recorded as the value of a ``"fault"`` trace entry.
FAULT_NONE = 0
FAULT_DROP = 1
FAULT_DUPLICATE = 2
FAULT_DELAY = 3
FAULT_CRASH = 4

_OUTCOME_NAMES = ("none", "drop", "duplicate", "delay", "crash")


def outcome_name(outcome: int) -> str:
    """Human-readable name for a fault outcome code."""
    if 0 <= outcome < len(_OUTCOME_NAMES):
        return _OUTCOME_NAMES[outcome]
    return f"fault#{outcome}"


def _weight(probability: float) -> int:
    """Quantize a probability to an integer permille weight."""
    return int(round(probability * FAULT_SCALE))


@record(frozen=True)
class FaultConfig(Declared):
    """Which faults the tester may inject, and how aggressively.

    Frozen and picklable so it travels inside a ``TestConfig`` to
    portfolio worker processes unchanged.  Each field is declared once,
    with its rule (:mod:`repro.testing.record`): a value out of range is
    refused at construction with a ``ValueError`` naming the field.

    Parameters
    ----------
    drop, duplicate, delay:
        Per-send probabilities (``0.0``–``1.0``) of the three message
        faults.  At most one message fault fires per send, consulted in
        ``drop`` → ``duplicate`` → ``delay`` order.
    crash:
        Per-step probability that the currently scheduled machine
        crash-restarts before taking its next step.
    persistent_state:
        When true (the default), fields listed in the crashed machine's
        ``persistent_fields`` class attribute survive the restart — the
        rest of ``__dict__`` is volatile memory and is wiped.  When
        false, *everything* is wiped (a diskless node).
    max_faults:
        Hard budget per execution: once this many faults have fired, no
        further fault decisions are consulted.  Keeps faulty state spaces
        bounded, mirroring how P# tests bound failure counts.
    crash_classes:
        Restrict crash faults to machines of these classes (subclasses
        included; a list is normalized to a tuple).  Empty means any
        machine may crash.
    """

    drop: float = field(keep(PROBABILITY), 0.0)
    duplicate: float = field(keep(PROBABILITY), 0.0)
    delay: float = field(keep(PROBABILITY), 0.0)
    crash: float = field(keep(PROBABILITY), 0.0)
    persistent_state: bool = field(keep(FLAG), True)
    max_faults: int = field(keep(COUNT), 16)
    crash_classes: Tuple[type, ...] = field(CLASSES)

    # -- derived views ---------------------------------------------------
    @property
    def enabled(self) -> bool:
        """True when any fault can actually fire."""
        return self.max_faults > 0 and (
            self.drop > 0 or self.duplicate > 0 or self.delay > 0 or self.crash > 0
        )

    @property
    def message_weights(self) -> Tuple[int, int, int]:
        """Integer permille weights for (drop, duplicate, delay)."""
        return (_weight(self.drop), _weight(self.duplicate), _weight(self.delay))

    @property
    def crash_weight(self) -> int:
        """Integer permille weight for crash faults."""
        return _weight(self.crash)
