"""Events and machine identifiers.

Events in P# are classes inheriting from an abstract ``Event`` base; an
event instance may carry a payload, which can be a scalar or a reference
to a heap object (Section 3: "A payload in P# can be a scalar or a
reference sent by a sender machine").  Payload references are *not*
deep-copied on send — that is exactly what makes the static data race
analysis of Section 5 necessary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


class Event:
    """Base class of all P# events.

    Subclass to declare a new event type::

        class EPing(Event):
            pass

        machine.send(target, EPing(payload))
    """

    __slots__ = ("payload",)

    def __init__(self, payload: Any = None) -> None:
        self.payload = payload

    def __repr__(self) -> str:
        if self.payload is None:
            return f"{type(self).__name__}()"
        return f"{type(self).__name__}({self.payload!r})"


class Halt(Event):
    """Built-in event that halts the receiving machine.

    A halted machine is removed from scheduling; events sent to it are
    silently dropped.
    """


@dataclass(frozen=True, order=True)
class MachineId:
    """A lightweight, hashable handle to a machine instance.

    Ids are allocated in creation order by the runtime, which makes them
    deterministic under a fixed schedule — a prerequisite for the
    deterministic replay of buggy schedules (Section 6.2).
    """

    value: int
    name: str = ""

    def __repr__(self) -> str:
        return f"{self.name}({self.value})"

    # Ids sit on the scheduling hot path (enabled-set membership, worker
    # lookups, trace comparisons): hash and compare by the allocation
    # counter first instead of building (value, name) tuples.  Equal ids
    # always share a value, so the hash contract holds.
    def __hash__(self) -> int:
        return self.value

    def __eq__(self, other: object) -> bool:
        if other.__class__ is MachineId:
            return self.value == other.value and self.name == other.name
        return NotImplemented
