"""Render and persist campaign observability artifacts.

A campaign's :class:`~repro.testing.engine.TestReport` — including its
:class:`~repro.testing.coverage.CoverageMap` and
:class:`~repro.testing.telemetry.TelemetryStats` — can be saved to disk
(:func:`save_report`), loaded back (:func:`load_campaign`, which also
reads crash checkpoints and merges their completed shards), and rendered
two ways:

* :func:`coverage_table` — a plain-text table of per-machine state and
  transition coverage plus the *names* of everything declared but never
  visited, so "what did this campaign fail to explore?" has a concrete
  answer;
* :func:`coverage_dot` — a Graphviz rendering of the explored state
  space, visited states filled and unvisited ones dashed.

Its one JSON form is the document a report file holds
(:func:`report_document`): ``report --json`` prints it, so what a
machine reads is a report file ``report`` reads back.

Everything here is read-side: no function in this module mutates the
report it is handed.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List

from ..errors import DocumentError, PSharpError
from .checkpoint import checkpoint_state
from .coverage import CoverageMap
from .engine import TestReport
from .record import REPORT_VERSION, dumps, read_document, write_atomic

_REPORT_KIND = "campaign-report"


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------
def report_document(report: TestReport) -> Dict[str, Any]:
    """What a report file holds: ``{"version": 3, "kind":
    "campaign-report", "report": <report document>}`` — the document a
    ``result`` frame or a checkpoint would carry for the same report
    (:mod:`repro.testing.record`)."""
    return {"version": REPORT_VERSION, "kind": _REPORT_KIND, "report": report.encode()}


def save_report(path: "str | os.PathLike", report: TestReport) -> None:
    """Atomically persist ``report`` to ``path`` as one JSON document,
    :func:`report_document`; :func:`load_campaign` reads it back."""
    write_atomic(path, dumps(report_document(report)))


def load_campaign(path: "str | os.PathLike") -> TestReport:
    """Load a campaign report from ``path``.

    Accepts two on-disk shapes:

    * a report file written by :func:`save_report`;
    * a campaign checkpoint written by
      :func:`~repro.testing.checkpoint.save_checkpoint` — the completed
      shards are merged (in shard order) into one report, so a crashed
      campaign's partial coverage is still inspectable.
    """
    path = os.fspath(path)
    document = read_document(path, "report")
    if document.get("kind") == _REPORT_KIND:
        if set(document) != {"version", "kind", "report"}:
            raise PSharpError(
                f"corrupt report file {path!r}: not version, kind and report"
            )
        try:
            return TestReport.decode(document["report"])
        except DocumentError as exc:
            raise PSharpError(f"corrupt report file {path!r}: {exc}") from exc
    if "completed" in document and "specs" in document:
        completed = checkpoint_state(document, path)["completed"]
        return TestReport.merged(
            [completed[index] for index in sorted(completed)], strategy="checkpoint"
        )
    raise PSharpError(
        f"{path!r} is neither a campaign report nor a checkpoint"
    )


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------
def _percent(value: float) -> str:
    return f"{value * 100:.0f}%"


def coverage_table(
    coverage: CoverageMap, *, max_uncovered: int = 25
) -> List[str]:
    """Render ``coverage`` as plain-text lines.

    One row per machine class (monitors flagged), a totals line, and —
    the part that makes a campaign's blind spots actionable — the names
    of every declared-but-unvisited state and transition, capped at
    ``max_uncovered`` entries each with an explicit "and N more" line so
    truncation is never silent."""
    if not coverage:
        return ["activity coverage: nothing recorded (campaign ran 0 schedules?)"]
    rows = []
    for name in sorted(coverage.machines):
        mc = coverage.machines[name]
        label = f"{name} (monitor)" if mc.is_monitor else name
        rows.append((
            label,
            f"{len(mc.states_visited)}/{len(mc.declared_states)}",
            f"{len(mc.transitions_taken)}/{len(mc.declared_transitions)}"
            f" ({_percent(mc.transition_coverage)})",
            str(mc.instances),
            str(mc.halts),
        ))
    header = ("machine", "states", "transitions", "instances", "halts")
    # (A map that recorded sends but no machine row has no rows at all.)
    widths = [max(len(row[col]) for row in (header, *rows)) for col in range(5)]
    lines = ["activity coverage:"]
    lines.append(
        "  " + "  ".join(header[col].ljust(widths[col]) for col in range(5))
    )
    for row in rows:
        lines.append(
            "  " + "  ".join(row[col].ljust(widths[col]) for col in range(5))
        )
    totals = coverage.totals()
    lines.append(
        f"  total: {totals['visited_states']}/{totals['declared_states']} states, "
        f"{totals['visited_transitions']}/{totals['declared_transitions']} "
        f"transitions; events sent={totals['events_sent']} "
        f"dequeued={totals['events_dequeued']} dropped={totals['events_dropped']}"
    )

    uncovered_states = [
        f"{name}: {state}"
        for name in sorted(coverage.machines)
        for state in coverage.machines[name].uncovered_states()
    ]
    uncovered_transitions = [
        f"{name}: {src} --{event}--> {dst}"
        for name in sorted(coverage.machines)
        for src, event, dst in coverage.machines[name].uncovered_transitions()
    ]
    for title, items in (
        ("uncovered states", uncovered_states),
        ("uncovered transitions", uncovered_transitions),
    ):
        if not items:
            continue
        lines.append(f"  {title} ({len(items)}):")
        for item in items[:max_uncovered]:
            lines.append(f"    {item}")
        if len(items) > max_uncovered:
            lines.append(f"    ... and {len(items) - max_uncovered} more")
    if not uncovered_states and not uncovered_transitions:
        lines.append("  every declared state and transition was visited")
    return lines


# ---------------------------------------------------------------------------
# Graphviz rendering
# ---------------------------------------------------------------------------
def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def coverage_dot(coverage: CoverageMap) -> str:
    """Render ``coverage`` as a Graphviz digraph.

    One cluster per machine class; visited states are filled boxes,
    declared-but-unvisited ones dashed; taken transitions are solid
    edges labelled with the event name, untaken declared ones dashed
    grey.  Paste into ``dot -Tsvg`` to *see* what a campaign explored."""
    lines = [
        "digraph coverage {",
        "  rankdir=LR;",
        '  node [shape=box, style="rounded"];',
    ]
    for idx, name in enumerate(sorted(coverage.machines)):
        mc = coverage.machines[name]
        lines.append(f"  subgraph cluster_{idx} {{")
        title = f"{name} (monitor)" if mc.is_monitor else name
        lines.append(f"    label={_dot_quote(title)};")
        states = sorted(set(mc.declared_states) | set(mc.states_visited))
        for state in states:
            node = _dot_quote(f"{name}.{state}")
            if state in mc.states_visited:
                style = 'style="rounded,filled", fillcolor="#cfe8cf"'
            else:
                style = 'style="rounded,dashed", color="#888888"'
            lines.append(
                f"    {node} [label={_dot_quote(state)}, {style}];"
            )
        edges = sorted(set(mc.declared_transitions) | set(mc.transitions_taken))
        for src, event, dst in edges:
            src_node = _dot_quote(f"{name}.{src}")
            dst_node = _dot_quote(f"{name}.{dst}")
            attrs = f"label={_dot_quote(event)}"
            if (src, event, dst) not in mc.transitions_taken:
                attrs += ', style=dashed, color="#888888", fontcolor="#888888"'
            lines.append(f"    {src_node} -> {dst_node} [{attrs}];")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
