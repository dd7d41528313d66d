"""Schedule traces: the replayable record of one execution.

"We designed the bug-finding mode to enable easy reproduction of bugs:
after a bug is found, the runtime can generate a trace that represents the
buggy schedule" (Section 6.2).  A trace is the sequence of all decisions
the scheduling strategy made: which machine to run at each scheduling
point, plus every controlled nondeterministic boolean/integer choice.

Traces sit on the hot path — one append per scheduling decision, tens of
thousands of decisions per second — so they are stored as two flat
``array`` buffers (a byte of kind tag plus a 64-bit value per decision)
instead of a list of tuples.  The JSON wire format is unchanged: a list of
``[kind, value]`` pairs with the string kinds ``"sched"``/``"bool"``/
``"int"``, so traces recorded by older versions replay unmodified and
stored traces stay diffable.  It is the one trace schema: a trace file is
that list, and a bug inside a report document carries the same list
(:meth:`ScheduleTrace.to_pairs` / :meth:`ScheduleTrace.from_pairs`).
"""

from __future__ import annotations

import hashlib
import json
import os
from array import array
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from ..errors import PSharpError
from .faults import FAULT_CRASH, FAULT_NONE
from .record import loads, write_atomic

SCHED = "sched"
BOOL = "bool"
INT = "int"
# Monitor invocations are not strategy decisions — they are runtime-level
# observations recorded so traces with specifications attached stay
# comparable bit-for-bit across worker back-ends.  Replay ignores them
# (ReplayStrategy filters them out) and re-records them deterministically.
MONITOR = "monitor"
# A temperature liveness firing (value: the hot monitor's registration
# index), appended when the runtime reports a hot-state liveness bug.
# Replay uses it to fire at exactly the recorded point — and, crucially,
# its absence proves the recorded run survived its hot stretches, so
# replay defers to the recorded schedule instead of racing it.
LIVENESS = "liveness"
# An injected-fault decision (value: the fault outcome code from
# :mod:`repro.testing.faults` — 0 none, 1 drop, 2 duplicate, 3 delay,
# 4 crash).  One entry per fault consultation point, so faulty executions
# replay bit-identically: ReplayStrategy re-fires exactly the recorded
# outcomes and never invents new faults.
FAULT = "fault"
# A schedule-space-reduction cutoff (value: the reason code from
# :mod:`repro.testing.reduction` — 1, a state-cache hit, is the only
# one).  Appended when the runtime abandons an execution whose state
# was already explored, so reduced campaigns leave an auditable record
# and checkpoint/merge tooling can tell a pruned schedule from a
# completed one.  Like monitor/liveness entries it is a runtime
# observation, not a strategy decision: ReplayStrategy filters it out,
# which is what makes a *bug* trace found under reduction (which by
# construction carries no cutoff — pruned executions never reach a bug)
# replay bit-identically with reduction off.
REDUCTION = "reduction"

#: The reason code of ``"reduction"`` entries: a state-cache hit, this
#: exact state was already explored.
REASON_STATE = 1

# Compact kind tags used in the flat encoding; the string kinds above
# remain the public vocabulary (and the wire format).
SCHED_TAG = 0
BOOL_TAG = 1
INT_TAG = 2
MONITOR_TAG = 3
LIVENESS_TAG = 4
FAULT_TAG = 5
REDUCTION_TAG = 6

_TAG_OF = {
    SCHED: SCHED_TAG,
    BOOL: BOOL_TAG,
    INT: INT_TAG,
    MONITOR: MONITOR_TAG,
    LIVENESS: LIVENESS_TAG,
    FAULT: FAULT_TAG,
    REDUCTION: REDUCTION_TAG,
}
_KIND_OF = (SCHED, BOOL, INT, MONITOR, LIVENESS, FAULT, REDUCTION)
#: The values a decision of each kind may hold, by tag: ``_LOW[tag] <=
#: value <= _HIGH[tag]``.  Machine ids, ``nondet_int`` results and monitor
#: indices are any non-negative 64-bit integer (an id no machine of the
#: execution has is a replay divergence, not a corrupt trace).
_INT64 = 2 ** 63 - 1
_LOW = (0, 0, 0, 0, 0, FAULT_NONE, REASON_STATE)
_HIGH = (_INT64, 1, _INT64, _INT64, _INT64, FAULT_CRASH, REASON_STATE)
#: How ``str(trace)`` prefixes a value of each kind (a bool reads T / F).
_SHORT_OF = ("m", "", "i", "obs", "hot!", "x", "cut")

Decision = Tuple[str, int]


class ScheduleTrace:
    """An append-only record of scheduling decisions.

    Internally two parallel flat arrays (kind tags, values); externally a
    sequence of ``(kind, value)`` tuples, exactly like the historical
    list-of-tuples representation.
    """

    __slots__ = ("_tags", "_values", "_digest")

    def __init__(self, decisions: Optional[Iterable[Decision]] = None) -> None:
        self._tags = array("b")
        self._values = array("q")
        # (length, hex digest) of the last fingerprint() — see there.
        self._digest: Optional[Tuple[int, str]] = None
        if decisions:
            for kind, value in decisions:
                self._tags.append(_TAG_OF[kind])
                self._values.append(value)

    # -- recording ------------------------------------------------------
    def record(self, kind: str, value: int) -> None:
        """Record one decision by string kind (compatibility surface)."""
        self._tags.append(_TAG_OF[kind])
        self._values.append(value)

    def append(self, tag: int, value: int) -> None:
        """Append by integer kind tag (no dict lookup)."""
        self._tags.append(tag)
        self._values.append(value)

    def appenders(self) -> Tuple[Callable[[int], None], Callable[[int], None]]:
        """The bound ``append`` of each array, ``(tag, value)``: what the
        runtime binds once per execution so that recording a decision is
        two C calls and no Python frame.  Call them in pairs."""
        return self._tags.append, self._values.append

    # -- sequence protocol ---------------------------------------------
    @property
    def decisions(self) -> List[Decision]:
        """The decisions as ``(kind, value)`` tuples (materialized)."""
        kinds = _KIND_OF
        return [(kinds[t], v) for t, v in zip(self._tags, self._values)]

    def __len__(self) -> int:
        return len(self._tags)

    def __iter__(self) -> Iterator[Decision]:
        return iter(self.decisions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScheduleTrace):
            return NotImplemented
        return self._tags == other._tags and self._values == other._values

    def __hash__(self) -> int:
        return hash((bytes(self._tags), self._values.tobytes()))

    def fingerprint(self) -> str:
        """A stable hex digest of the decision sequence.

        Two traces have equal fingerprints iff they are bit-identical —
        the compact form of the cross-carrier parity contract (inline
        and threaded must produce the same digest per strategy seed),
        cheap enough to assert over whole benchmark registries and to
        record alongside benchmark results.  The digest is kept with the
        length it was computed at (a trace only grows), so the bug dedup
        of a shard-report fold hashes each held trace once, not once per
        merge.
        """
        kept = self._digest
        if kept is not None and kept[0] == len(self._tags):
            return kept[1]
        digest = hashlib.sha256(bytes(self._tags))
        digest.update(self._values.tobytes())
        self._digest = (len(self._tags), digest.hexdigest())
        return self._digest[1]

    # -- serialization (traces can be stored alongside bug reports) -----
    def to_pairs(self) -> List[List[object]]:
        """The wire form as plain JSON data: ``[[kind, value], ...]``."""
        kinds = _KIND_OF
        return [[kinds[t], v] for t, v in zip(self._tags, self._values)]

    @classmethod
    def from_pairs(cls, pairs: object) -> "ScheduleTrace":
        """The trace :meth:`to_pairs` data describes.  Anything else —
        not a list of two-element lists, an unknown kind, a value that is
        not an integer (``1.5`` and ``true`` are not), or one its kind
        cannot hold (a negative machine id, a bool of 2, a fault outcome
        or reduction reason with no code) — raises ``ValueError`` /
        ``TypeError``.  Trace files, report documents and fleet frames
        all decode a trace here."""
        if type(pairs) is not list:
            raise TypeError("expected a list of [kind, value] pairs")
        values = [value for _, value in pairs]
        if not set(map(type, values)) <= {int}:
            raise TypeError("a decision's value must be an integer")
        try:
            tags = [_TAG_OF[kind] for kind, _ in pairs]
        except KeyError as exc:
            raise ValueError(f"unknown decision kind {exc}") from None
        bad = [
            index for index, (tag, value) in enumerate(zip(tags, values))
            if not _LOW[tag] <= value <= _HIGH[tag]
        ]
        if bad:
            tag = tags[bad[0]]
            raise ValueError(
                f"decision {bad[0]} ({_KIND_OF[tag]!r}) holds a value "
                f"outside {_LOW[tag]}..{_HIGH[tag]}"
            )
        trace = cls()
        trace._tags = array("b", tags)
        trace._values = array("q", values)
        return trace

    def to_json(self) -> str:
        return json.dumps(self.to_pairs())

    @classmethod
    def from_json(cls, text: "str | bytes") -> "ScheduleTrace":
        """Parse the wire format, raising :class:`PSharpError` on garbage.

        Truncated downloads, half-written files and hand-edited traces
        all surface as one clear error instead of a raw
        ``JSONDecodeError``/``KeyError`` traceback."""
        try:
            return cls.from_pairs(loads(text))
        except (TypeError, ValueError, OverflowError) as exc:
            raise PSharpError(
                f"corrupt schedule trace: {exc} (expected a JSON list of "
                f"[kind, value] pairs as written by ScheduleTrace.save)"
            ) from exc

    def save(self, path: "str | os.PathLike") -> None:
        """Write the trace to ``path`` in the ``to_json`` wire format,
        atomically (:func:`~repro.testing.record.write_atomic`).

        The file a found bug leaves behind is the reproduction artifact:
        ``ScheduleTrace.load(path)`` (or ``repro.replay(cls, path)`` / the
        ``python -m repro replay --trace`` CLI) replays it bit-for-bit."""
        write_atomic(path, self.to_json() + "\n")

    @classmethod
    def load(cls, path: "str | os.PathLike") -> "ScheduleTrace":
        """Read a trace previously written by :meth:`save` (or any file in
        the ``to_json`` wire format).  Raises :class:`PSharpError` if the
        file is unreadable or corrupt."""
        try:
            with open(os.fspath(path), "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise PSharpError(f"cannot read trace file {path!r}: {exc}") from exc
        return cls.from_json(data)  # bad UTF-8 is a corrupt trace too

    def __str__(self) -> str:
        return " ".join(
            ("T" if value else "F") if tag == BOOL_TAG else f"{_SHORT_OF[tag]}{value}"
            for tag, value in zip(self._tags, self._values)
        )

    def __repr__(self) -> str:
        return f"ScheduleTrace({self.decisions!r})"
