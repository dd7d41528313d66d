"""The host's speed, sampled next to every timed operation.

The benchmark runs on a few cores of a shared host whose speed changes
under it: for tens of seconds to minutes at a time every piece of
single-threaded Python -- a spin loop, a campaign, the analyser -- reads
1.2-1.7x slower *together*, in CPU time as in wall time.  A run is shorter
than such a spell, so no statistic inside a run removes it; a ratio does.
:func:`reference_work` is a fixed piece of interpreter-bound work owned by
the benchmark (nothing of ``repro`` is in it, so no change to the program
moves it).  It is timed between operations, and every end-to-end timing is
divided by the slowdown that the reference, run next to it, shows against
``REFERENCE_S`` (``SENSITIVITY`` of its excess): the timings read in
*seconds of the reference host*, the host on which the reference takes
``REFERENCE_S``.  The uncorrected figures and the
slowdown itself are per-layer metrics (``bench.op_wall_raw_s``,
``bench.host_slowdown``).

What the correction cannot see: a slowdown that hits the program and not
the reference (a cache-hostile change whose cost depends on a neighbour's
memory traffic), and a change that slows every Python thread of the
process alike (a busy background thread).  The raw figures are there for
those.
"""

from __future__ import annotations

import gc
import time
from typing import List, Tuple

#: Wall (and CPU) seconds of one :func:`reference_work` on the host the
#: constants were sized on, in its fast state (fastest of three, median of
#: 3 000 samples in a quiet quarter-hour: 2.54-2.72 ms).  A scale only.
REFERENCE_S = 0.00260

#: The reference is one tight loop, and the host's slow state hits it
#: harder than it hits the program, whose code and data spread wider.
#: Timed next to each other through 253 slow phases, the reference read
#: 1.76x slower, random campaigns 1.48-1.50x, a DFS campaign 1.67x, the
#: analyser 1.61x (and in a slow quarter-hour set-up children 1.45x and
#: sharded campaigns 1.45x against 1.8-1.9x): this share of the
#: reference's excess is charged, which leaves each of them within a
#: tenth of its quiet reading.
SENSITIVITY = 0.7

#: runs of the reference per sample; the fastest counts
REFERENCE_RUNS = 3

#: A sample older than this is refreshed before the next operation.
MAX_AGE_S = 0.025


class _Cell:
    __slots__ = ("value", "label")

    def __init__(self, value: int) -> None:
        self.value = value
        self.label = None

    def bump(self, by: int) -> int:
        self.value += by
        return self.value


def reference_work(loops: int = 6_000) -> int:
    """Attribute access, method calls, allocation, dict and list traffic,
    small-int arithmetic and short strings: what the interpreter spends
    its time on under ``repro``."""
    table = {}
    recent: List[_Cell] = []
    total = 0
    for i in range(loops):
        cell = _Cell(i)
        table[i & 1023] = cell
        recent.append(cell)
        other = table.get((i * 7) & 1023)
        if other is not None:
            total += other.bump(i & 3)
        if not i & 63:
            cell.label = "cell-%d" % i
            total += len(cell.label) + len(recent)
            recent.clear()
    return total


def timed_reference() -> Tuple[float, float]:
    """``(wall, cpu)`` seconds of the fastest of ``REFERENCE_RUNS`` runs
    of the reference (a preemption of a few milliseconds is not the host's
    speed), with the cycle collector off: a collection started inside the
    reference would walk the workload's heap and time that."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        best = (float("inf"), float("inf"))
        for _ in range(REFERENCE_RUNS):
            cpu0 = time.process_time()
            start = time.perf_counter()
            reference_work()
            wall = time.perf_counter() - start
            best = min(best, (wall, max(time.process_time() - cpu0, 1e-9)))
        return best
    finally:
        if collecting:
            gc.enable()


class HostClock:
    """Samples of the reference, and the slowdown they give an interval."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (wall, cpu) slowdowns
        self.spent = 0.0  # seconds this process has spent sampling
        self._last_end = float("-inf")
        self._busy = False

    def sample(self, force: bool = False) -> Tuple[float, float]:
        """The newest ``(wall, cpu)`` slowdown, refreshed if it is older
        than ``MAX_AGE_S`` or ``force``; inside a timed operation (nested
        ``measure``) never refreshed, so no operation pays for a sample."""
        if self.samples and (
            self._busy or (not force and time.perf_counter() - self._last_end < MAX_AGE_S)
        ):
            return self.samples[-1]
        start = time.perf_counter()
        wall, cpu = timed_reference()
        self._last_end = time.perf_counter()
        self.spent += self._last_end - start
        slow = (
            1.0 + SENSITIVITY * (wall / REFERENCE_S - 1.0),
            1.0 + SENSITIVITY * (cpu / REFERENCE_S - 1.0),
        )
        self.samples.append(slow)
        return slow

    def around(self, fn):
        """Run ``fn()`` between two looks at the host: ``(value, wall
        seconds, (wall, cpu) slowdown)``.  An operation shorter than
        ``MAX_AGE_S`` is charged the newest sample; a longer one the mean of
        the sample before it and a fresh one after it."""
        before = self.sample()
        nested, self._busy = self._busy, True
        try:
            start = time.perf_counter()
            value = fn()
            wall = time.perf_counter() - start
        finally:
            self._busy = nested
        after = self.sample() if wall >= MAX_AGE_S else before
        slow = ((before[0] + after[0]) / 2, (before[1] + after[1]) / 2)
        return value, wall, slow


#: the one clock of a benchmark process
HOST = HostClock()
