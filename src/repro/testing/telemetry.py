"""Campaign telemetry: counters, histograms, and a JSONL event stream.

Coverage (:mod:`repro.testing.coverage`) answers *what the schedules
explored*; this module answers *how the campaign ran* — the shape of the
iterations (steps per schedule, wall time per schedule, schedules/sec
over the campaign's lifetime) and how much of the scheduling was an
actual strategy decision versus a forced single-choice step.  Stats are
records (:mod:`repro.testing.record`): they merge associatively and ride
on :class:`~repro.testing.engine.TestReport` across shards, ``result``
frames and checkpoint resume exactly like coverage does.

:class:`EventLog` is the second half: an append-only JSONL stream
(``--events FILE`` / ``TestConfig.events_path``) of structured campaign
events — campaign/shard/iteration spans, worker spawns, losses and
respawns, watchdog hits, checkpoint writes.  Each event is one JSON
object per line with at least ``ts`` (epoch seconds), ``pid`` and
``type``.  One process writes the file: the workers of a sharded
campaign (:mod:`repro.testing.fleet`) send their records over the wire
protocol inside their ``heartbeat`` and ``result`` frames, already
stamped with ``ts``, ``pid`` and ``shard``, and the coordinator appends
each frame's records via :meth:`EventLog.forward`, so a distributed
campaign's event log reads like a local one.  Emission failures are swallowed:
observability must never kill a campaign.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Iterable, List, Optional

from .record import (
    COUNT, INT_COUNTS, SUM, Record, field, least, most, nested, optional,
    record,
)

__all__ = ["Histogram", "TelemetryStats", "EventLog"]


@record
class Histogram(Record):
    """Power-of-two-bucketed counting histogram of non-negative values.

    Bucket ``i`` holds values in ``[2**(i-1), 2**i)`` (bucket 0 holds
    zero), which keeps the merge trivially associative and the document
    tiny regardless of how many samples a campaign records.
    """

    buckets: Dict[int, int] = field(INT_COUNTS)
    total: int = field(SUM)
    min: Optional[int] = field(least(optional(COUNT)))
    max: Optional[int] = field(most(optional(COUNT)))

    def record(self, value: float) -> None:
        value = int(value)
        if value < 0:
            value = 0
        bucket = value.bit_length()
        buckets = self.buckets
        buckets[bucket] = buckets.get(bucket, 0) + 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def count(self) -> int:
        return sum(self.buckets.values())

    @property
    def mean(self) -> float:
        count = self.count
        return self.total / count if count else 0.0


@record
class TelemetryStats(Record):
    """Mergeable per-campaign execution-shape statistics.

    * ``steps`` — histogram of scheduling steps per iteration (its
      ``count`` is :attr:`iterations`);
    * ``iteration_us`` — histogram of per-iteration wall time (µs);
    * ``rate`` — iterations completed per whole second since the shard
      started (``{second_offset: iterations}``), i.e. schedules/sec over
      time, mergeable across shards because offsets are relative;
    * ``consulted`` / ``forced`` — scheduling points where the strategy
      actually chose between ≥1 enabled machines versus points with a
      single forced continuation (the consult ratio says how much
      search-space a strategy is really exercising).
    """

    steps: Histogram = field(nested(Histogram))
    iteration_us: Histogram = field(nested(Histogram))
    rate: Dict[int, int] = field(INT_COUNTS)
    consulted: int = field(SUM)
    forced: int = field(SUM)

    def record_iteration(
        self,
        *,
        steps: int,
        scheduling_points: int,
        wall_seconds: float,
        since_start: float,
        consulted: int,
    ) -> None:
        self.steps.record(steps)
        self.iteration_us.record(wall_seconds * 1e6)
        second = int(since_start)
        self.rate[second] = self.rate.get(second, 0) + 1
        self.consulted += consulted
        self.forced += max(0, scheduling_points - consulted)

    @property
    def iterations(self) -> int:
        return self.steps.count

    @property
    def consult_ratio(self) -> float:
        decisions = self.consulted + self.forced
        return self.consulted / decisions if decisions else 0.0

    def summary_lines(self) -> List[str]:
        return [
            f"iterations: {self.iterations}, "
            f"steps/iter mean {self.steps.mean:.0f} "
            f"(min {self.steps.min or 0}, max {self.steps.max or 0}), "
            f"iter wall mean {self.iteration_us.mean / 1000:.2f}ms",
            f"strategy decisions: {self.consulted} consulted, "
            f"{self.forced} forced "
            f"({self.consult_ratio * 100:.0f}% consulted)",
        ]


class EventLog:
    """Append-only JSONL stream of structured campaign events.

    Each emit is a single ``write`` of one complete newline-terminated
    line on an append-mode file descriptor.  Never raises from
    :meth:`emit` — a full disk or a vanished file must not take the
    campaign down with it.
    """

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self._fh = open(self.path, "a", encoding="utf-8")

    def emit(self, type_: str, **fields: object) -> None:
        record: Dict[str, object] = {
            "ts": round(time.time(), 6),
            "pid": os.getpid(),
            "type": type_,
        }
        record.update(fields)
        try:
            self._fh.write(json.dumps(record, default=str) + "\n")
            self._fh.flush()
        except (OSError, ValueError):
            pass  # observability must never kill a campaign

    def forward(self, records: Iterable[Dict[str, object]]) -> None:
        """Append pre-built records verbatim, in one write — the path a
        fleet coordinator uses for the records one frame brought over
        the wire, already stamped (ts/pid/shard) by the worker that
        produced them.  Same durability rules as :meth:`emit`: never
        raises."""
        try:
            self._fh.write(
                "".join(json.dumps(record, default=str) + "\n" for record in records)
            )
            self._fh.flush()
        except (OSError, ValueError, TypeError):
            pass

    def fileno(self) -> int:
        return self._fh.fileno()

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:
            pass

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
