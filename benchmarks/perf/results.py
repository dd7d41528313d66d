"""The one writer of the benchmark's files, and the comparison rule.

* ``BENCHMARK.json`` (the manifest) is written only by
  :func:`write_manifest`, from :mod:`benchmarks.perf.metrics`.
* Result files (``out/results.json`` unless ``--out`` says otherwise) are
  written only by :func:`merge_section`: one section per workload, merged
  into what the file already holds, never overwritten wholesale.  Every
  section carries its own stamp: host, interpreter, commit, seed,
  constants, repeats, and per metric the median, quartiles and samples.

Nothing here runs under ``pytest`` against a tracked file.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional, Sequence

from . import REPO_ROOT
from .metrics import BETTER, BOUNDS, END_TO_END_NAMES, UNITS, manifest
from .stats import quartiles, spread
from .workloads import Sizes

MANIFEST_PATH = os.path.join(REPO_ROOT, "BENCHMARK.json")


def _write_json(path: str, document: Any) -> None:
    """Atomic replace: a reader never sees a torn file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=os.path.basename(path) + ".", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(document, fh, indent=2)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_manifest(path: str = MANIFEST_PATH) -> None:
    _write_json(path, manifest())


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def stamp(seed: int, seconds: float, repeats: int, sizes: Sizes) -> Dict[str, Any]:
    return {
        "cpu_model": _cpu_model(),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "commit": _commit(),
        "seed": seed,
        "seconds": seconds,
        "repeats": repeats,
        "constants": dataclasses.asdict(sizes),
    }


def summarize(name: str, samples: Sequence[float]) -> Dict[str, Any]:
    q1, median, q3 = quartiles(samples)
    block = {"unit": UNITS[name], "better": BETTER[name], "n": len(samples),
             "median": median, "q1": q1, "q3": q3, "values": list(samples)}
    if name in BOUNDS:
        block["bound"] = BOUNDS[name]
    return block


def section(
    stamp_: Dict[str, Any],
    untraced: Sequence[Dict[str, Any]],
    traced: Optional[Dict[str, Any]],
) -> Dict[str, Any]:
    """One workload's result block from its runs' result objects.
    ``correct`` needs every run correct *and* the first round's exact
    counts equal in every run (each its own interpreter), traced included."""
    runs = [*untraced, traced] if traced is not None else list(untraced)
    attempted = sum(run["attempted"] for run in untraced)
    failed = sum(run["failed"] for run in untraced)
    counts_repeat = all(run["counts"] == untraced[0]["counts"] for run in runs)
    block: Dict[str, Any] = {
        "stamp": stamp_,
        "claim": None,
        "correct": counts_repeat and all(run["correct"] for run in runs),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "counts_repeat": counts_repeat,
        "counts": untraced[0]["counts"],
        "notes": sorted({note for run in untraced for note in run["notes"]}),
        "detail": untraced[0]["detail"],
        "end_to_end": {
            name: summarize(name, [run["metrics"][name]["value"] for run in untraced])
            for name in END_TO_END_NAMES
        },
    }
    if traced is not None:
        block["traced_correct"] = traced["correct"]
        block["traced_notes"] = traced["notes"]
        block["per_layer"] = traced["metrics"]
    return block


def merge_section(path: str, workload: str, block: Dict[str, Any]) -> None:
    """Read-modify-write one workload's section of a result file."""
    document: Dict[str, Any] = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            document = json.load(fh)
    document[workload] = block
    _write_json(path, document)


# ----------------------------------------------------------------------
def _worse_by(name: str, base: float, other: float) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""
    if not base:
        return 0.0
    change = (other - base) / base
    return change if BETTER[name] == "lower" else -change


def judge(name: str, a: Sequence[float], b: Sequence[float]) -> str:
    """``better`` / ``worse`` / ``within bound`` / ``unresolved`` for runs
    ``b`` against runs ``a`` of one end-to-end metric on one workload."""
    bound = BOUNDS[name]
    median_a, median_b = quartiles(a)[1], quartiles(b)[1]
    if _worse_by(name, median_a, median_b) > bound:
        return "worse"
    lower = BETTER[name] == "lower"
    if (max(b) < min(a)) if lower else (min(b) > max(a)):
        return "better"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"  # spread wider than the bound and the runs overlap
    return "within bound"


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per workload x end-to-end metric present in both files."""
    rows = []
    for workload in a:
        if workload not in b:
            continue
        for name in END_TO_END_NAMES:
            one, two = a[workload]["end_to_end"][name], b[workload]["end_to_end"][name]
            rows.append({
                "workload": workload, "metric": name, "unit": UNITS[name],
                "a": one, "b": two,
                "ratio": two["median"] / one["median"] if one["median"] else 0.0,
                "verdict": judge(name, one["values"], two["values"]),
            })
    return rows


def count_differences(a: Dict[str, Any], b: Dict[str, Any]) -> List[str]:
    """Workloads whose exact counts or failed operations differ."""
    out = []
    for workload in a:
        if workload not in b:
            continue
        if a[workload]["counts"] != b[workload]["counts"]:
            out.append(f"{workload}: schedule/step counts differ")
        if a[workload]["failed"] != b[workload]["failed"]:
            out.append(
                f"{workload}: failed {a[workload]['failed']} against {b[workload]['failed']}"
            )
    return out


def format_compare(rows: Sequence[Dict[str, Any]]) -> str:
    lines = [
        f"{'workload':<12} {'metric':<12} {'A median [q1, q3]':<38} "
        f"{'B median [q1, q3]':<38} {'B/A':>7}  verdict"
    ]
    for row in rows:
        cells = [
            f"{side['median']:.6g} [{side['q1']:.6g}, {side['q3']:.6g}] {row['unit']}"
            for side in (row["a"], row["b"])
        ]
        lines.append(
            f"{row['workload']:<12} {row['metric']:<12} {cells[0]:<38} {cells[1]:<38} "
            f"{row['ratio']:>7.3f}  {row['verdict']}"
        )
    return "\n".join(lines)


def format_section(workload: str, block: Dict[str, Any]) -> str:
    lines = [
        f"== {workload}: attempted {block['attempted']}, failed {block['failed']}, "
        f"correct {block['correct']}, counts repeat {block['counts_repeat']}"
    ]
    for name, cell in block["end_to_end"].items():
        lines.append(
            f"  {name:<14} {cell['median']:.6g} {cell['unit']}  "
            f"[q1 {cell['q1']:.6g}, q3 {cell['q3']:.6g}, n {cell['n']}, "
            f"spread {spread(cell['values']):.3f}, bound {cell['bound']}]"
        )
    for name, cell in block.get("per_layer", {}).items():
        lines.append(f"  {name:<44} {cell['value']:.6g} {cell['unit']}")
    lines += [f"  note: {note}" for note in block["notes"]]
    return "\n".join(lines)
