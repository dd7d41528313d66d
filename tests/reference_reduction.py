"""Test-only oracle: the reduction engine's step log and seen-set as
they were kept in Python objects.

Until the engine logged its decisions as an ``array('i')`` of effect
offsets and its seen states as a dict of queued-use counts beside a
``deque``, it kept one ``(chosen value, frame depth)`` tuple and one
offset ``int`` per decision, and an ``OrderedDict`` whose order was the
LRU order.  The two classes below are that code verbatim but for their
names and for taking the engine's ``effects`` list as an argument;
``tests/test_reduction_oracle.py`` holds the engine against them — every
verdict and cached set of the seen-set, and every backtrack insertion
the race analysis makes, in order (the ``reference_*.py`` pattern).
"""

from collections import OrderedDict
from typing import Callable, List, Tuple

from repro.testing.trace import REASON_STATE


class ReferenceStepLog:
    """The per-execution decision log and its race analysis."""

    def __init__(self) -> None:
        self._points: List[Tuple[int, int]] = []  # (chosen value, frame depth)
        self._bounds: List[int] = []
        self._pending_depth = -1

    def begin_execution(self) -> None:
        self._points.clear()
        self._bounds.clear()
        self._pending_depth = -1

    def bind_frame(self, depth: int) -> None:
        self._pending_depth = depth

    def chose(self, value: int, effects: List[int]) -> None:
        """Log a decision; call it before the engine appends ``value`` to
        ``effects``."""
        depth, self._pending_depth = self._pending_depth, -1
        self._bounds.append(len(effects))
        self._points.append((value, depth))

    def analyze(self, effects: List[int], add_backtrack: Callable[[int, int], None]) -> None:
        points = self._points
        if not points:
            return
        bounds = self._bounds
        n = len(points)
        total = len(effects)
        last: dict = {}
        for i in range(n):
            chosen = points[i][0]
            start = bounds[i]
            stop = bounds[i + 1] if i + 1 < n else total
            for obj in effects[start:stop]:
                j = last.get(obj)
                if j is not None:
                    prev_chosen, prev_depth = points[j]
                    if prev_chosen != chosen and prev_depth >= 0:
                        add_backtrack(prev_depth, chosen)
                last[obj] = i


class ReferenceSeenSet:
    """The campaign's LRU-bounded seen-set."""

    def __init__(self, state_cache_size: int) -> None:
        self.state_cache_size = state_cache_size
        self.distinct_states = 0
        self.state_prunes = 0
        self._seen: "OrderedDict[bytes, bool]" = OrderedDict()

    def reset_search(self) -> None:
        self._seen.clear()

    def check_state(self, fingerprint: bytes) -> int:
        seen = self._seen
        if fingerprint in seen:
            seen.move_to_end(fingerprint)
            self.state_prunes += 1
            return REASON_STATE
        seen[fingerprint] = True
        if len(seen) > self.state_cache_size:
            seen.popitem(last=False)
        self.distinct_states += 1
        return 0

    def cached(self) -> List[bytes]:
        """The cached fingerprints, least recently used first."""
        return list(self._seen)
