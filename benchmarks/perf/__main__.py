"""Command line of the benchmark.

``python3 -m benchmarks.perf --workload W --seed N --seconds S --trace 0|1``
    one run of one workload; the last line of standard output is the
    result object (``correct``, ``attempted``, ``failed``, ``metrics``).

``python3 -m benchmarks.perf [--out FILE]``
    every workload ``REPEATS`` times, interleaved round-robin, one child
    interpreter per run, plus one traced run each; prints every metric by
    name with its unit and merges one stamped section per workload into
    ``FILE`` (default ``benchmarks/perf/out/results.json``); exits 1 if an
    output was wrong or a count did not repeat.

``--compare A.json B.json``   the table a later change pastes.
``--selfcheck``               two full sets of the current tree, compared.
``--write-manifest``          regenerate ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Sequence

from . import REPO_ROOT, run_child

# The manifest's command carries no environment: put the checkout's ``src``
# in front for this process and, through ``PYTHONPATH``, for its children.
SRC_DIR = os.path.join(REPO_ROOT, "src")
if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
    sys.exit(f"benchmarks.perf measures the repro package of its own checkout; "
             f"{SRC_DIR}/repro is missing")
sys.path.insert(0, SRC_DIR)
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (SRC_DIR, os.environ.get("PYTHONPATH")))
)

from .hostclock import HOST  # noqa: E402  (after the checkout check)
from .metrics import RUN_SECONDS  # noqa: E402
from .probes import cold_child  # noqa: E402
from .results import (  # noqa: E402
    compare,
    count_differences,
    format_compare,
    format_section,
    merge_section,
    section,
    stamp,
    write_manifest,
)
from .run import OUT_DIR, run_once, scratch_dir, set_up  # noqa: E402
from .workloads import FULL, SMOKE, WORKLOADS, Sizes  # noqa: E402

DEFAULT_SEED = 20150613
#: runs per workload of a full set; the compare rule's quartiles need five
REPEATS = 5
#: a full run of one workload (set-up children, measuring time, checks,
#: probes) must end well inside this
RUN_TIMEOUT = 170

EXTRA_KEYS = ("counts", "rounds", "notes", "detail", "raw")


def parse(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.perf", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny constants (the tier-1 smoke test's)")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "results.json"))
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--write-manifest", action="store_true")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--cold-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def sizes_of(args: argparse.Namespace) -> Sizes:
    return SMOKE if args.smoke else FULL


def single_run(args: argparse.Namespace) -> int:
    result = run_once(
        args.workload, args.seed, args.seconds, bool(args.trace), sizes=sizes_of(args)
    )
    extras = {key: result.pop(key) for key in EXTRA_KEYS}
    print(json.dumps(extras))
    print(json.dumps(result))
    return 0


def child_run(workload: str, args: argparse.Namespace, trace: int) -> Dict[str, Any]:
    """One run in a child interpreter (killed past ``RUN_TIMEOUT``)."""
    command = [sys.executable, "-m", "benchmarks.perf", "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace)]
    if args.smoke:
        command.append("--smoke")
    code, out, err, _ = run_child(command, RUN_TIMEOUT)
    if code != 0:
        raise SystemExit(f"{workload}: exit {code}\n{err[-2000:]}")
    extras, result = (json.loads(line) for line in out.splitlines()[-2:])
    return {**result, **extras}


def full_set(args: argparse.Namespace, out: str) -> Dict[str, Any]:
    """``REPEATS`` untraced runs per workload, round-robin so that a slow
    minute on a shared host spreads over all of them, then one traced run
    each; one section per workload merged into ``out``."""
    untraced: Dict[str, List[Dict[str, Any]]] = {name: [] for name in WORKLOADS}
    for repeat in range(REPEATS):
        for name in WORKLOADS:
            print(f"[{repeat + 1}/{REPEATS}] {name}", file=sys.stderr, flush=True)
            untraced[name].append(child_run(name, args, 0))
    sections = {}
    for name in WORKLOADS:
        print(f"[traced] {name}", file=sys.stderr, flush=True)
        traced = child_run(name, args, 1)
        block = section(stamp(args.seed, args.seconds, REPEATS, sizes_of(args)),
                        untraced[name], traced)
        merge_section(out, name, block)
        sections[name] = block
        print(format_section(name, block), flush=True)
    return sections


def wrong(sections: Dict[str, Any]) -> int:
    """1 if a run of any workload gave a wrong output or a count that did
    not repeat (``section`` folds both into ``correct``)."""
    return 0 if all(block["correct"] for block in sections.values()) else 1


def report_compare(a: Dict[str, Any], b: Dict[str, Any]) -> int:
    rows = compare(a, b)
    print(format_compare(rows))
    differences = count_differences(a, b)
    for line in differences:
        print(f"exact counts: {line}")
    return 1 if differences or any(row["verdict"] == "worse" for row in rows) else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse(argv)
    if args.cold_probe:
        print(json.dumps(cold_child()))
        return 0
    if args.write_manifest:
        write_manifest()
        return 0
    if args.compare:
        documents = []
        for path in args.compare:
            with open(path, encoding="utf-8") as fh:
                documents.append(json.load(fh))
        return report_compare(*documents)
    if args.setup_only:
        # The parent's samples say little about the core this child ran
        # on: the child samples the host itself, after its imports and
        # after its set-up, and says how long the sampling took.
        slow = [HOST.sample(force=True)[0]]
        with scratch_dir(OUT_DIR) as scratch:
            set_up(args.workload, args.seed, sizes_of(args), scratch)
        slow.append(HOST.sample(force=True)[0])
        print(json.dumps({"host_slowdown": sum(slow) / 2, "sampling_s": HOST.spent}))
        return 0
    if args.workload:
        return single_run(args)
    if args.selfcheck:
        stem = os.path.splitext(args.out)[0]
        first = full_set(args, stem + "-selfcheck-a.json")
        second = full_set(args, stem + "-selfcheck-b.json")
        return max(report_compare(first, second), wrong(first), wrong(second))
    return wrong(full_set(args, args.out))


if __name__ == "__main__":
    sys.exit(main())
