"""Spans recorded from the benchmark's side of the public API.

Nothing inside ``repro`` is instrumented: a :class:`TimedStrategy` proxy
rides in through ``Campaign(config, strategy=...)``, a timed runtime
subclass through ``TestConfig(runtime_factory=...)``, and plain
``with tracer.span(...)`` blocks wrap the calls into public functions.

Tree: ``workload -> campaign -> {config.resolve, runtime.build,
runtime.execute, runtime.close}``.  Strategy consults are not stored one
by one: each ``runtime.execute`` span carries their count and summed
nanoseconds.  Spans stay in memory until :meth:`Tracer.dump`.  A span's
self time is its duration minus the part its children cover.
"""

from __future__ import annotations

import json
from contextlib import contextmanager, nullcontext
from time import perf_counter_ns
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.testing import BugFindingRuntime, SchedulingStrategy


class Span:
    __slots__ = ("id", "parent", "name", "campaign", "start", "end", "attrs")

    def __init__(self, id_: int, parent: int, name: str, campaign: int, start: int):
        self.id = id_
        self.parent = parent
        self.name = name
        self.campaign = campaign
        self.start = start
        self.end = start
        self.attrs: Optional[Dict[str, Any]] = None

    @property
    def ns(self) -> int:
        return self.end - self.start


class Tracer:
    """An in-memory span recorder for one traced run (single-threaded
    span stack: spans open and close on the thread that drives the
    campaign; pooled worker threads only bump strategy counters)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self.campaign = 0

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else -1
        span = Span(len(self.spans), parent, name, self.campaign, perf_counter_ns())
        if attrs:
            span.attrs = attrs
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = perf_counter_ns()
            self._stack.pop()

    @contextmanager
    def campaign_span(self, kind: str) -> Iterator[Span]:
        """A ``campaign`` span; every span opened inside shares its id."""
        self.campaign += 1
        with self.span("campaign", kind=kind) as span:
            yield span

    # ------------------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def total_ns(self, name: str) -> int:
        return sum(span.ns for span in self.spans if span.name == name)

    def self_ns(self) -> Dict[str, int]:
        """Self time per span name: duration minus direct children."""
        own = [span.ns for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                own[span.parent] -= span.ns
        out: Dict[str, int] = {}
        for span, ns in zip(self.spans, own):
            out[span.name] = out.get(span.name, 0) + ns
        return out

    def dump(self, path: str, header: Dict[str, Any]) -> None:
        """Write the span table as one JSON document (columns, then one
        row per span; times are nanoseconds from the first span)."""
        origin = self.spans[0].start if self.spans else 0
        rows = [
            [s.id, s.parent, s.name, s.campaign, s.start - origin, s.end - origin, s.attrs]
            for s in self.spans
        ]
        doc = {
            **header,
            "columns": ["id", "parent", "name", "campaign", "start_ns", "end_ns", "attrs"],
            "self_ns_by_name": self.self_ns(),
            "spans": rows,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")


def span_if(tracer: Optional[Tracer], name: str, campaign: bool = False):
    """``tracer``'s (campaign) span, or nothing when the run is untraced."""
    if tracer is None:
        return nullcontext()
    return tracer.campaign_span(name) if campaign else tracer.span(name)


class TimedStrategy(SchedulingStrategy):
    """Forwarding proxy that counts and times every strategy call.

    Decisions are the inner strategy's own, so traces, schedule counts
    and step counts are identical with and without the proxy."""

    def __init__(self, inner: SchedulingStrategy, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name
        self.consults = 0
        self.consult_ns = 0
        self.forced = 0
        self.prepares = 0
        self.prepare_ns = 0

    def __getattr__(self, attr: str) -> Any:
        # Optional probes the runtime looks up by name (replay's
        # next_fault_outcome, the DFS family's reduction_forced, ...).
        return getattr(self.inner, attr)

    def prepare_iteration(self) -> bool:
        start = perf_counter_ns()
        more = self.inner.prepare_iteration()
        self.prepare_ns += perf_counter_ns() - start
        self.prepares += 1
        return more

    def pick_machine(self, enabled, current):
        start = perf_counter_ns()
        choice = self.inner.pick_machine(enabled, current)
        self.consult_ns += perf_counter_ns() - start
        self.consults += 1
        return choice

    def pick_bool(self) -> bool:
        start = perf_counter_ns()
        choice = self.inner.pick_bool()
        self.consult_ns += perf_counter_ns() - start
        self.consults += 1
        return choice

    def pick_int(self, bound: int) -> int:
        start = perf_counter_ns()
        choice = self.inner.pick_int(bound)
        self.consult_ns += perf_counter_ns() - start
        self.consults += 1
        return choice

    def pick_fault(self, weight: int) -> bool:
        start = perf_counter_ns()
        choice = self.inner.pick_fault(weight)
        self.consult_ns += perf_counter_ns() - start
        self.consults += 1
        return choice

    def observe_forced(self, choice) -> None:
        self.forced += 1
        self.inner.observe_forced(choice)

    def attach_reduction(self, engine) -> None:
        self.inner.attach_reduction(engine)

    def is_fair(self) -> bool:
        return self.inner.is_fair()

    def reset(self) -> None:
        self.inner.reset()


class TimedRuntime(BugFindingRuntime):
    """The stock runtime with construction, ``execute`` and ``close`` under
    spans.  The tracer is found on the strategy (always a
    :class:`TimedStrategy` in a traced campaign), so the class itself is a
    valid ``runtime_factory`` with the stock constructor signature."""

    def __init__(self, strategy: TimedStrategy, **kwargs: Any) -> None:
        self._tracer = strategy.tracer
        with self._tracer.span("runtime.build"):
            super().__init__(strategy, **kwargs)

    def execute(self, main_cls, payload=None):
        strategy = self.strategy
        consults, consult_ns, forced = (
            strategy.consults, strategy.consult_ns, strategy.forced
        )
        with self._tracer.span("runtime.execute") as span:
            result = super().execute(main_cls, payload)
        span.attrs = {
            "steps": result.steps,
            "consults": strategy.consults - consults,
            "consult_ns": strategy.consult_ns - consult_ns,
            "forced": strategy.forced - forced,
        }
        return result

    def close(self) -> None:
        with self._tracer.span("runtime.close"):
            super().close()


def execute_totals(spans: Sequence[Span]) -> Dict[str, int]:
    """Summed attributes of ``runtime.execute`` spans."""
    totals = {"calls": 0, "ns": 0, "steps": 0, "consults": 0, "consult_ns": 0, "forced": 0}
    for span in spans:
        if span.name != "runtime.execute" or span.attrs is None:
            continue  # attrs stay unset when execute raised
        totals["calls"] += 1
        totals["ns"] += span.ns
        for key in ("steps", "consults", "consult_ns", "forced"):
            totals[key] += span.attrs[key]
    return totals
