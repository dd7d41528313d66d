"""Test-only oracle: the two-array ``ScheduleTrace`` that the packed code
list replaced, kept as it was.

Until the packed layout, a trace stored each decision in two flat
``array`` buffers, a byte of kind tag (``array('b')``) and a 64-bit
value (``array('q')``), and the runtime recorded a decision as two
appends, one per array.  The class below is that one verbatim; the
module constants it reads are the live ones, which did not change.
``tests/test_trace_codes.py`` holds the packed trace against it — digest,
wire form, text, length, equality and hash, and what ``from_pairs``
refuses — on generated decision sequences (the ``reference_taint.py``
pattern).
"""

import json
import os
from array import array
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

from repro.errors import PSharpError
from repro.testing.record import loads, write_atomic
from repro.testing.trace import (
    _HIGH,
    _KIND_OF,
    _LOW,
    _SHORT_OF,
    _TAG_OF,
    BOOL_TAG,
    sha256,
)

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
        digest = sha256(bytes(self._tags))
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
