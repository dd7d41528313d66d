#!/usr/bin/env python3
"""Keep the docs honest: link-check the markdown tree and execute the
shell examples.

Four checks, all run by the CI docs lane:

``--links``
    Every relative markdown link in ``README.md`` and ``docs/**/*.md``
    must point at a file that exists, and a ``#fragment`` must match a
    heading in the target file (GitHub slug rules).  Absolute URLs are
    ignored — this repo's CI has no network.

``--run-blocks``
    Every fenced ``sh`` code block in the given files (default:
    ``docs/cli.md``) is executed with ``bash -euo pipefail`` from the
    repo root and must exit 0 — documented commands cannot rot.

``--removed-names``
    No file under ``README.md``, ``docs/``, ``examples/`` or ``src/``
    may mention an API this repo deleted (the engine shims, the
    thread-per-execution worker mode, the process-per-spec portfolio
    supervisor, the stdio worker, the local workers' start method and the
    pipe-pair connection, the report's consulted-decisions counter and
    the checkpoint's own version constant; under ``src/`` also the worker
    pool and the ``workers`` resolution, helpers that had no caller, the
    second frame class and fault consultation of the DFS stack, the core
    calculus' own DFS chooser, and a stored copy of a count a report
    derives, in the frontend the per-kind type tables and their logged
    doors, in the fleet the ``event`` frame and protocol version 3, and
    in the testing package the runtime's by-name probes of its strategy,
    the DFS counter and replay probe they read and ``_report_bug``'s
    finish status):
    a doc or docstring must not teach a name that no longer imports.
    ``CHANGES.md`` and ``ROADMAP.md`` are history and are not scanned.
    Under ``src/`` the pickle and base64 codecs are removed names too —
    JSON is the only format of frames, checkpoints and report files —
    matched as imports and calls, not as words (a docstring may say what
    is never unpickled).

``--schema``
    The report-object tables in ``docs/protocol.md`` §4 and the campaign
    field tables in ``docs/cli.md`` "Campaign files" must be exactly what
    the field declarations generate (``repro.testing.record``: each
    class declares a field once — a record with its JSON type and merge
    rule, a config with its JSON type and default; the flag column is
    read off the ``test`` parser), and the call-census table in
    ``docs/architecture.md`` "Cost of one scheduling step" exactly what
    ``tools/step_census.py`` counts (on CPython 3.11, the docs lane's).
    ``--write-schema`` rewrites them.

Exit code 0 when everything passes, 1 with one line per failure
otherwise.  No third-party dependencies.
"""

from __future__ import annotations

import argparse
import re
import subprocess
import sys
from pathlib import Path
from typing import Iterable, List, Tuple

ROOT = Path(__file__).resolve().parents[1]

FENCE_RE = re.compile(r"^(```|~~~)")
LINK_RE = re.compile(r"\[[^\]^\[]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
HEADING_RE = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")


def doc_files() -> List[Path]:
    files = [ROOT / "README.md"]
    files.extend(sorted((ROOT / "docs").rglob("*.md")))
    return [f for f in files if f.is_file()]


def strip_code(lines: Iterable[str]) -> List[str]:
    """Drop fenced blocks entirely and inline code spans per line, so
    example snippets never register as links or headings."""
    kept = []
    fence = None
    for line in lines:
        match = FENCE_RE.match(line.strip())
        if match:
            marker = match.group(1)
            if fence is None:
                fence = marker
            elif marker == fence:
                fence = None
            continue
        if fence is None:
            kept.append(re.sub(r"`[^`]*`", "``", line))
    return kept


def github_slug(heading: str) -> str:
    """GitHub's anchor algorithm: lowercase, drop everything but word
    characters / spaces / hyphens, spaces become hyphens."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # linked headings
    text = text.lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def fenced_stripped(lines: Iterable[str]) -> List[str]:
    """Drop fenced blocks but keep inline code (headings slug its text)."""
    kept = []
    fence = None
    for line in lines:
        match = FENCE_RE.match(line.strip())
        if match:
            marker = match.group(1)
            if fence is None:
                fence = marker
            elif marker == fence:
                fence = None
            continue
        if fence is None:
            kept.append(line)
    return kept


def anchors_in(path: Path) -> set:
    slugs: dict = {}
    out = set()
    for line in fenced_stripped(path.read_text(encoding="utf-8").splitlines()):
        match = HEADING_RE.match(line)
        if not match:
            continue
        slug = github_slug(match.group(2))
        # GitHub de-duplicates repeated headings with -1, -2, ...
        count = slugs.get(slug, 0)
        slugs[slug] = count + 1
        out.add(slug if count == 0 else f"{slug}-{count}")
    return out


def check_links() -> List[str]:
    errors = []
    for doc in doc_files():
        rel = doc.relative_to(ROOT)
        for line_no, line in enumerate(
            strip_code(doc.read_text(encoding="utf-8").splitlines()), start=1
        ):
            for match in LINK_RE.finditer(line):
                target = match.group(1)
                if re.match(r"^[a-z][a-z0-9+.-]*:", target) or target.startswith(
                    "//"
                ):
                    continue  # absolute URL (https:, mailto:, ...)
                path_part, _, fragment = target.partition("#")
                if path_part:
                    resolved = (doc.parent / path_part).resolve()
                    if not resolved.exists():
                        errors.append(
                            f"{rel}:{line_no}: broken link {target!r} "
                            f"({path_part} does not exist)"
                        )
                        continue
                else:
                    resolved = doc
                if fragment:
                    if resolved.suffix != ".md":
                        continue
                    if fragment not in anchors_in(resolved):
                        errors.append(
                            f"{rel}:{line_no}: broken anchor {target!r} "
                            f"(no heading slugs to #{fragment} in "
                            f"{resolved.relative_to(ROOT)})"
                        )
    return errors


#: What was deleted, and what to write instead (docs/architecture.md
#: "Removed" has the long form).
REMOVED_NAMES = (
    (re.compile(r"\bTestingEngine\b"), "Campaign(TestConfig(...), strategy=...)"),
    (re.compile(r"\bPortfolioEngine\b"), "Campaign(config).portfolio()"),
    (re.compile(r"\bengine\.drive\b"), "engine.run_campaign"),
    (re.compile(r"\brun_portfolio\b"), "Campaign(config).portfolio()"),
    (re.compile(r"""workers\s*=\s*["']spawn["']"""), "runtime_factory=ThreadedRuntime"),
    (re.compile(r"--workers[ =]spawn\b"), "runtime_factory=ThreadedRuntime"),
    (re.compile(r"--stdio\b"), "worker --host H --port P"),
    (re.compile(r"\bstart_method\b"), "nothing: local workers are always forked"),
    (re.compile(r"\bworker_context\b"), 'multiprocessing.get_context("fork") in fleet.run_fleet'),
    (re.compile(r"\bfilenos\b"), "Connection.fileno(): a connection is one socket"),
    (
        re.compile(r"\breport_json\b"),
        "report --json / reporting.report_document: the report document",
    ),
    (re.compile(r"\bconsulted_decisions\b"), "report.telemetry.consulted"),
    (re.compile(r"\bCHECKPOINT_VERSION\b"), "record.REPORT_VERSION, the one document version"),
)

#: Removed from ``src/`` only (docs may name what was deleted).
REMOVED_FROM_SRC = (
    (
        re.compile(r"^\s*(?:import|from)\s+(?:pickle|base64)\b|\bpickle\.(?:dumps?|loads?)\b"),
        "repro.testing.record: Record.encode / decode, dumps / loads",
    ),
    (re.compile(r"\bb64(?:en|de)code\b"), "nest the JSON object in the frame"),
    (
        re.compile(r"\bOP_(?:SEND|CREATE)\b|\b_inline_body\b"),
        "primitives are calls: BugFindingRuntime._point (after _spawn, for a create)",
    ),
    (re.compile(r"\b_schedulable_walk\b"), "tests/reference_runtime.py: schedulable_walk"),
    (
        re.compile(r"\b_send_(?:point|effect)\b|\b_decide\b"),
        "the scheduling point is one frame: BugFindingRuntime._point",
    ),
    (re.compile(r"\._workers\b"), "seats are found by index: _worker_list[mid.value]"),
    (
        re.compile(r"\b_(?:send|dequeue)_observers\b|\b_observers_for\b|\b_monitor_by_class\b"),
        "per-runtime tables of monitor indices: _observing_send / "
        "_observing_dequeue / _monitor_index",
    ),
    (
        re.compile(r"\bon_state_entered\b"),
        "the _hook_state callable (CoverageMap.record_entry)",
    ),
    (
        re.compile(r"\b_(?:step|start)_inline\b|\b_enter_inline\w*|\b_handle\b|\b_transition_to\b"),
        "one Machine._start / _step / _enter (+ _enter_co) under every runtime",
    ),
    (
        re.compile(r"\binline_dispatch\b|\b(?:entry|exit)_inline\b|\binline_disposition\b|\b_inline_handler\b"),
        "StateInfo.dispatch's coroutine slot and StateInfo.entry_co / exit_co",
    ),
    (
        re.compile(r"\b_matching_monitors\b|\b_(?:send|dequeue)_observer_cache\b|\b_mirror_to_monitors\b"),
        "core.runtime._Observers: _observing_send / _observing_dequeue",
    ),
    (
        re.compile(
            r"\bWorkerPool\b|\b_PoolWorker\b|\bshared_worker_pool\b|\b_release_pool_workers\b"
            r"|\b_worker_retired\b|\bresolve_workers\b|\beffective_workers\b"
        ),
        "one carrier; threads per execution in testing.threads.ThreadedRuntime",
    ),
    (
        re.compile(
            r"\bevent_name\b|\bpayload_of\b|\bparam_names\b|\bfield_names\b"
            r"|\bhandled_events\b|\bmachine_class\b|\bft_of\b"
        ),
        "nothing: these helpers had no caller",
    ),
    (
        re.compile(
            r"\b_DfsFrame\b|\b_DporFrame\b|\b_consult_(?:send|crash)_fault\b|\b_forced_base\b"
        ),
        "one strategies._Frame per choice point, one BugFindingRuntime._consult_fault",
    ),
    # hashlib maps OpenSSL's libcrypto into every process for two digests
    # CPython also builds in (trace.sha256, reduction's blake2b).
    (re.compile(r"^\s*(import|from)\s+hashlib\b"), "CPython's own digest modules"),
    # Derived counts are read-only properties now, never stored.
    (
        re.compile(
            r"\b(?:first_bug_iteration|faults_injected|schedules_pruned)\s*(?:\+?=(?!=)|:\s*int\b)"
        ),
        "first_bug.iteration, fault_kinds, branches_pruned / state_prunes: "
        "the one stored count each property reads",
    ),
    (re.compile(r"\b_DfsChooser\b"), "testing.strategies.DfsStrategy (lang.interp.explore)"),
)

#: Removed from one file only: a second copy of a scheduling-point piece
#: announces itself with this phrase, a record's second JSON form or
#: digest with these names, the reduction's trace-compared prefix and
#: learned-clause store with theirs (and its Python-object step log and
#: seen-set with theirs), and CHESS's field hook and private race
#: detector with theirs.
_SECOND_JSON_FORM = (
    (re.compile(r"\bto_json\b"), "Record.encode: the report document"),
    (re.compile(r"fingerprint"), "record == (Record.__eq__)"),
)
_REDUCTION_PREFIX_AND_CLAUSES = (
    (
        re.compile(
            r"\brange_equal\b|\bprev_trace\b|\bend_execution\b|\bREASON_CLAUSE\b"
            r"|\b_blocked\b|\bclauses_learned\b|\bclause_prunes\b|\bcur_blocked\b"
            r"|\b_reduction_chose\b"
        ),
        "ReductionEngine.diverged, set by the DFS stack; the clause store is gone",
    ),
)
#: Removed from every file under a directory.
REMOVED_UNDER = {
    "src/repro/analysis/": (
        (
            re.compile(r"""getattr\(stmt, ["']dst["']"""),
            "stmt.vars_defined(): a statement's DEFS name what it writes",
        ),
    ),
    "src/repro/testing/": (
        (
            re.compile(
                r"getattr\(self\.strategy\b|\breduction_forced\b|\b_replay_probe\b"
                r"|\bfinish_status\b"
            ),
            "SchedulingStrategy's declared diverged / next_fault_outcome / "
            "temperature_may_fire(), ReductionEngine.forced, _report_bug(kind, ...)",
        ),
        (
            re.compile(r"\bappenders\b|\b_record_(?:tag|value)\b"),
            "ScheduleTrace.recorder: one code per decision, value << 3 | tag",
        ),
        (
            re.compile(r"\benabled\[:\]"),
            "pick_machine(self._enabled, current): the runtime's list, uncopied",
        ),
    ),
}
REMOVED_FROM_FILE = {
    "src/repro/testing/runtime.py": (
        (
            re.compile(r"kept in sync with"),
            "the one _send_effect / _decide / _choose / _machine_body",
        ),
    ) + _REDUCTION_PREFIX_AND_CLAUSES,
    "src/repro/testing/reduction.py": _REDUCTION_PREFIX_AND_CLAUSES + (
        (
            re.compile(r"\b_points\b|\bOrderedDict\b"),
            "the step log's array of effect offsets (_bounds) and frame depths "
            "(_depths); the seen-set's dict of queued uses beside a deque (_uses)",
        ),
    ),
    "src/repro/testing/trace.py": _REDUCTION_PREFIX_AND_CLAUSES,
    "src/repro/testing/coverage.py": _SECOND_JSON_FORM,
    "src/repro/testing/telemetry.py": _SECOND_JSON_FORM + (
        (
            re.compile(r"\bfault_kinds\b|\biterations\s*(?:\+?=(?!=)|:\s*int\b)|\bcount\s*(?:\+=|:\s*int\b)"),
            "TestReport.fault_kinds; iterations and count are read off the histograms",
        ),
    ),
    "src/repro/core/machine.py": (
        (
            re.compile(
                r"\b_field_access_hook\b|\b_instrumented_setattr\b"
                r"|\binstall_field_access_hook\b|\b_psharp_internal\b|\bdef read\("
            ),
            "nothing: repro.chess.runtime installs its own Machine.__setattr__",
        ),
    ),
    "src/repro/chess/runtime.py": (
        (
            re.compile(r"\b_VectorClock\b|\b_check_access\b"),
            "repro.lang.interp.RaceDetector, the one vector-clock detector",
        ),
    ),
    "src/repro/analysis/taint.py": (
        (
            re.compile(r"\b_fwd\b|\b_bwd\b|\bdef register\b"),
            "TaintEngine._rows; tests/reference_taint.py keeps the set-level oracle",
        ),
    ),
    "src/repro/lang/ir.py": (
        (re.compile(r"\bdef cls\("), "Program.classes[name]: the method had no caller"),
    ),
    "src/repro/analysis/xsa.py": (
        (
            re.compile(r"\.register\("),
            "nothing: a driver is queried by its MethodInfo, never added to the engine",
        ),
        (
            re.compile(r"\bdef _rename\("),
            "_clone_stmts renames the fields a statement's DEFS / USES declare",
        ),
    ),
    "src/repro/testing/fleet.py": (
        (
            re.compile(r"""["']event["']"""),
            "a worker's records ride its heartbeat and result frames (`events`)",
        ),
        (re.compile(r"\bPROTOCOL_VERSION\s*=\s*3\b"), "PROTOCOL_VERSION = 4: work frames carry batches"),
    ),
    "src/repro/analysis/frontend.py": (
        (
            re.compile(
                r"\bnote_(?:field|event_payload|creation_payload|return|arg_types)\b"
                r"|\b(?:field|return|param)_type\b|\b_logged\b|\bdef _(?:set|join)\("
                r"|\b(?:_prev)?_(?:field|event_payload|creation_payload|return|param)_types\b"
                r"|\bparam_types\b"
            ),
            "one type table: PythonFrontend.note(key, ft) / lookup(key, default)",
        ),
    ),
}


def check_removed_names() -> List[str]:
    files = [ROOT / "README.md"]
    for top, pattern in (("docs", "*.md"), ("examples", "*.py"), ("src", "*.py")):
        files.extend(sorted((ROOT / top).rglob(pattern)))
    errors = []
    for path in files:
        if not path.is_file():
            continue
        rel = path.relative_to(ROOT)
        removed = REMOVED_NAMES
        if rel.parts[0] == "src":
            removed += REMOVED_FROM_SRC + REMOVED_FROM_FILE.get(rel.as_posix(), ())
            for directory, names in REMOVED_UNDER.items():
                if rel.as_posix().startswith(directory):
                    removed += names
        for line_no, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1
        ):
            for regex, instead in removed:
                match = regex.search(line)
                if match:
                    errors.append(
                        f"{rel}:{line_no}: mentions removed {match.group(0)!r} "
                        f"(use {instead})"
                    )
    return errors


SCHEMA_BEGIN, SCHEMA_END = "<!-- schema:begin -->\n", "<!-- schema:end -->\n"


def report_schema_markdown() -> str:
    """The report-object tables, from the declarations themselves."""
    from repro.testing import (
        CoverageMap, Histogram, MachineCoverage, TelemetryStats, TestReport,
    )
    from repro.testing.engine import BUG_FIELDS

    out = []
    for cls in (TestReport, CoverageMap, MachineCoverage, TelemetryStats, Histogram):
        out += [f"#### `{cls.__name__}`", "", "| Field | JSON | Merge |", "| - | - | - |"]
        out += [f"| `{name}` | {rule.wire} | {rule.merged} |" for name, rule in cls.FIELDS]
        out.append("")
    out += ["#### `BugReport` (inside `bugs` and `first_bug`)", "", "| Field | JSON |", "| - | - |"]
    out += [f"| `{name}` | {rule.wire} |" for name, rule in BUG_FIELDS]
    return "\n".join(out) + "\n"


#: Fields no single flag sets (the flag column otherwise comes from the
#: ``test`` parser: the flag whose ``dest`` is the field).
FLAG_NOTES = {
    "program": "`TARGET`",
    "strategy": "`--strategy`, given once (not with `--config`)",
    "specs": "`--strategy`, repeated (not with `--config`)",
    "faults": "`--no-faults`; `--fault-*` set its fields",
}


def campaign_schema_markdown() -> str:
    """The campaign-file tables: field, JSON type, default, flag."""
    import dataclasses
    import json

    from repro import FaultConfig, StrategySpec, TestConfig
    from repro.__main__ import _build_parser

    subcommands = next(
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    flags = dict(FLAG_NOTES)
    for action in subcommands.choices["test"]._actions:
        if action.option_strings:
            sets = " (sets false)" if action.const is False else ""
            flags.setdefault(action.dest, f"`{action.option_strings[0]}`{sets}")

    def default(cls: type, name: str) -> str:
        declared = cls.__dataclass_fields__[name]
        if declared.default_factory is not dataclasses.MISSING:
            return f"`{json.dumps(declared.default_factory())}`"
        if declared.default is dataclasses.MISSING:
            return "required"
        return f"`{json.dumps(declared.default)}`"

    out = []
    for cls, title in (
        (TestConfig, "`TestConfig` (the file, next to `version`)"),
        (FaultConfig, "`FaultConfig` (inside `faults`)"),
        (StrategySpec, "`StrategySpec` (`strategy`, each entry of `specs`, as an object)"),
    ):
        out += [f"#### {title}", "", "| Field | JSON | Default | Flag |", "| - | - | - | - |"]
        out += [
            f"| `{name}` | {rule.wire} | {default(cls, name)} | {flags.get(name, '')} |"
            for name, rule in cls.FIELDS
        ]
        out.append("")
    return "\n".join(out)


#: ``tools/step_census.py``'s calls per step at the commit before the
#: step loop was cut to one frame per scheduling point (e134085).  The
#: rows not named here ran on pooled threads then: no count to compare.
CENSUS_BEFORE = {
    "random": 11.03,
    "RaftLossy:random": 17.67,
    "TwoPhaseCommitCrash:random": 16.61,
    "ProcessScheduler:fair-random": 11.55,
    "TokenRing:fair-random": 10.85,
    "Raft:pct": 19.18,
    "TwoPhaseCommit:delay-bounding": 17.67,
}


def census_markdown() -> str:
    """The call-census table: before (recorded above), now (counted)."""
    import step_census  # next to this file

    layers = (
        ("runtime", ("repro.testing.runtime",)),
        ("machine", ("repro.core.machine", "repro.core.events", "repro.core.runtime")),
        ("strategy", ("repro.testing.strategies", "stdlib:random.py")),
        ("hooks", ("repro.testing.coverage", "repro.testing.monitors", "repro.testing.trace")),
        ("program", ("program",)),
    )
    out = [
        "| Configuration | Steps | Before | Now | " + " | ".join(n for n, _ in layers) + " | rest |",
        "| - | - | - | - | " + " | ".join("-" for _ in layers) + " | - |",
    ]
    document = step_census.document()
    for row in document["rows"]:
        split = [sum(row["by_module"].get(m, 0.0) for m in modules) for _, modules in layers]
        rest = row["calls_per_step"] - sum(split)
        before = CENSUS_BEFORE.get(row["configuration"])
        out.append(
            f"| `{row['configuration']}` | {row['steps']} "
            f"| {'—' if before is None else f'{before:.2f}'} | **{row['calls_per_step']:.2f}** | "
            + " | ".join(f"{value:.2f}" for value in split)
            + f" | {rest:.2f} |"
        )
    before = [CENSUS_BEFORE[name] for name in step_census.HOOKS_ROWS]
    out.append(
        f"| mean of the six `soak_hooks` rows | | {sum(before) / len(before):.2f} "
        f"| **{document['soak_hooks_mean']:.2f}** | " + " | ".join("" for _ in layers) + " | |"
    )
    return "\n".join(out) + "\n"


SCHEMAS = (
    (ROOT / "docs" / "protocol.md", report_schema_markdown),
    (ROOT / "docs" / "cli.md", campaign_schema_markdown),
    (ROOT / "docs" / "architecture.md", census_markdown),
)


def check_schema(write: bool) -> List[str]:
    sys.path.insert(0, str(ROOT / "src"))
    errors = []
    for doc, generate in SCHEMAS:
        text = doc.read_text(encoding="utf-8")
        rel = doc.relative_to(ROOT)
        try:
            head, rest = text.split(SCHEMA_BEGIN)
            current, tail = rest.split(SCHEMA_END)
        except ValueError:
            errors.append(f"{rel}: schema:begin / schema:end markers not found (once each)")
            continue
        expected = generate()
        if current == expected:
            continue
        if write:
            doc.write_text(head + SCHEMA_BEGIN + expected + SCHEMA_END + tail, encoding="utf-8")
        else:
            errors.append(
                f"{rel}: the generated tables differ from what the code says "
                "(run: python tools/check_docs.py --write-schema)"
            )
    return errors


def shell_blocks(path: Path) -> List[Tuple[int, str]]:
    blocks = []
    lines = path.read_text(encoding="utf-8").splitlines()
    in_block = False
    start = 0
    chunk: List[str] = []
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not in_block and stripped in ("```sh", "```bash", "```shell"):
            in_block = True
            start = line_no
            chunk = []
        elif in_block and stripped == "```":
            in_block = False
            blocks.append((start, "\n".join(chunk)))
        elif in_block:
            chunk.append(line)
    return blocks


def run_blocks(paths: List[Path]) -> List[str]:
    errors = []
    for path in paths:
        rel = path.relative_to(ROOT)
        blocks = shell_blocks(path)
        if not blocks:
            errors.append(f"{rel}: no fenced sh blocks found (doc renamed?)")
            continue
        for line_no, script in blocks:
            print(f"-- {rel}:{line_no}", flush=True)
            proc = subprocess.run(
                ["bash", "-euo", "pipefail", "-c", script],
                cwd=ROOT,
                timeout=600,
            )
            if proc.returncode != 0:
                errors.append(
                    f"{rel}:{line_no}: block exited {proc.returncode}"
                )
    return errors


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--links", action="store_true", help="check intra-repo markdown links"
    )
    parser.add_argument(
        "--removed-names",
        action="store_true",
        help="fail on mentions of deleted APIs in README, docs, examples, src",
    )
    parser.add_argument(
        "--schema",
        action="store_true",
        help="the report-object tables (docs/protocol.md) and the campaign "
        "field tables (docs/cli.md) match the field declarations, the "
        "call-census table (docs/architecture.md) tools/step_census.py",
    )
    parser.add_argument(
        "--write-schema",
        action="store_true",
        help="regenerate those tables in place",
    )
    parser.add_argument(
        "--run-blocks",
        action="store_true",
        help="execute fenced sh blocks (default files: docs/cli.md)",
    )
    parser.add_argument(
        "files",
        nargs="*",
        type=Path,
        help="markdown files for --run-blocks (default: docs/cli.md)",
    )
    args = parser.parse_args(argv)
    schema = args.schema or args.write_schema
    if not (args.links or args.removed_names or schema or args.run_blocks):
        parser.error("pass --links, --removed-names, --schema and/or --run-blocks")

    errors: List[str] = []
    if args.links:
        errors.extend(check_links())
    if args.removed_names:
        errors.extend(check_removed_names())
    if schema:
        errors.extend(check_schema(write=args.write_schema))
    if args.run_blocks:
        files = [f.resolve() for f in args.files] or [ROOT / "docs" / "cli.md"]
        errors.extend(run_blocks(files))

    for error in errors:
        print(f"error: {error}", file=sys.stderr)
    if not errors:
        checked = []
        if args.links:
            checked.append(f"links in {len(doc_files())} file(s)")
        if args.removed_names:
            checked.append("no removed name mentioned")
        if schema:
            checked.append(
                "report and campaign schema tables match the declarations, "
                "the call-census table the census"
            )
        if args.run_blocks:
            checked.append("all sh blocks ran clean")
        print("docs ok: " + ", ".join(checked))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
