#!/usr/bin/env python3
"""Count the Python-level calls one scheduling step costs.

``python tools/step_census.py`` prints one JSON document: a row per
configuration with the exact number of Python frames entered
(``sys.setprofile`` ``call`` events — function calls and generator
resumptions; C calls are not frames) while a seeded campaign ran,
divided by the scheduling steps it took (``report.total_steps``), and
the same ratio per module.  No clock is read: for fixed seeds the counts
repeat exactly on any host, which is what lets
``tests/test_step_budget.py`` gate on them and
``docs/architecture.md`` "Cost of one scheduling step" quote them
(``tools/check_docs.py --schema`` holds the doc against this output).

The configurations are the benchmark's two step-loop workloads at small,
fixed sizes: ``random`` is ``soak`` (bare random campaigns on the eight
Table-2 programs), ``random:time_limit`` the same campaigns under
``time_limit=300.0`` (the ``TestConfig`` default: the runtime polls a
deadline), the next six are ``soak_hooks``'s (registry
faults and monitors, coverage and the event log on, under random,
fair-random, pct and delay-bounding), the next two are the programs of
``runtime.threads_ns_per_step`` (``benchmarks/perf/programs.py``: a send
in a comprehension, a send from a lambda in a field) as bare random
campaigns, and the last four are ``sweep``'s systematic search: ``dfs``
on BoundedAsync (depth 8, the first 300 schedules), the same to
exhaustion under ``dpor+state-cache`` and as ``iddfs`` from depth 2 to
8, and ``dfs`` on TwoPhaseCommitCrash (depth 6, its registry crash
faults making fault choice points) to exhaustion.  Every campaign runs
on the inline carrier after a two-schedule warm-up, so compilation is
not counted.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path(__file__).resolve().parents[1]

SEED = 7
#: Enough schedules to run a DFS row to exhaustion.
EXHAUST = 1_000_000
#: ``soak``'s campaigns: the eight Table-2 programs under ``random``.
_TABLE2_RANDOM = tuple(
    (program, "random") for program in (
        "BasicPaxos", "BoundedAsync", "ChainReplication", "Chord", "Raft",
        "TwoPhaseCommit", "German", "MultiPaxos",
    )
)
#: (row name, [(program, strategy)], schedules per program, reduction)
CONFIGURATIONS: Tuple[Tuple[str, Tuple[Tuple[str, str], ...], int, str], ...] = (
    ("random", _TABLE2_RANDOM, 10, "none"),
    ("random:time_limit", _TABLE2_RANDOM, 10, "none"),
    ("RaftLossy:random", (("RaftLossy", "random"),), 20, "none"),
    ("TwoPhaseCommitCrash:random", (("TwoPhaseCommitCrash", "random"),), 40, "none"),
    ("ProcessScheduler:fair-random", (("ProcessScheduler", "fair-random"),), 2, "none"),
    ("TokenRing:fair-random", (("TokenRing", "fair-random"),), 4, "none"),
    ("Raft:pct", (("Raft", "pct,depth=3"),), 20, "none"),
    ("TwoPhaseCommit:delay-bounding", (("TwoPhaseCommit", "delay-bounding,delays=2"),), 40, "none"),
    ("FanOutCoordinator:random", (("benchmarks.perf.programs:FanOutCoordinator", "random"),), 20, "none"),
    ("LambdaRelay:random", (("benchmarks.perf.programs:LambdaRelay", "random"),), 20, "none"),
    ("BoundedAsync:dfs", (("BoundedAsync", "dfs,max_depth=8"),), 300, "none"),
    ("BoundedAsync:dfs+dpor+state-cache", (("BoundedAsync", "dfs,max_depth=8"),), EXHAUST,
     "dpor+state-cache"),
    ("BoundedAsync:iddfs+dpor+state-cache",
     (("BoundedAsync", "iddfs,initial_depth=2,max_depth=8"),), EXHAUST, "dpor+state-cache"),
    ("TwoPhaseCommitCrash:dfs", (("TwoPhaseCommitCrash", "dfs,max_depth=6"),), EXHAUST, "none"),
)
#: The rows whose mean is the ``soak_hooks`` figure.
HOOKS_ROWS = tuple(name for name, _, _, _ in CONFIGURATIONS[2:8])
#: The rows run under a time limit (every other row has none).
TIME_LIMITS = {"random:time_limit": 300.0}


def _module_of(filename: str, cache: Dict[str, str]) -> str:
    module = cache.get(filename)
    if module is None:
        path = filename.replace(os.sep, "/")
        if "/repro/bench/" in path or path.endswith("/benchmarks/perf/programs.py"):
            module = "program"  # the machines under test
        elif "/repro/" in path:
            module = "repro." + path.rsplit("/repro/", 1)[1][:-3].replace("/", ".")
        else:
            module = "stdlib:" + os.path.basename(path)
        cache[filename] = module
    return module


def census(name: str) -> Dict[str, Any]:
    """Run configuration ``name`` under the call counter: its row."""
    from repro.testing import Campaign, TestConfig

    if str(ROOT) not in sys.path:
        sys.path.append(str(ROOT))  # benchmarks.perf.programs
    programs, schedules, reduction = next(
        (programs, schedules, reduction)
        for row, programs, schedules, reduction in CONFIGURATIONS if row == name
    )
    hooks = name in HOOKS_ROWS
    by_code: Dict[Any, int] = {}

    def count(frame, event, arg):
        if event == "call":
            code = frame.f_code
            by_code[code] = by_code.get(code, 0) + 1

    steps = iterations = 0
    with tempfile.TemporaryDirectory(prefix="step-census-") as scratch:
        for program, strategy in programs:
            kwargs = dict(
                program=program, strategy=strategy, seed=SEED,
                max_iterations=schedules, time_limit=TIME_LIMITS.get(name),
                max_steps=5_000,
                stop_on_first_bug=False, workers="inline", reduction=reduction,
            )
            if hooks:
                kwargs.update(
                    coverage=True, events_path=os.path.join(scratch, "events.jsonl")
                )
            Campaign(TestConfig(**dict(kwargs, max_iterations=2))).run()
            campaign = Campaign(TestConfig(**kwargs))
            sys.setprofile(count)
            try:
                report = campaign.run()
            finally:
                sys.setprofile(None)
            steps += report.total_steps
            iterations += report.iterations

    modules: Dict[str, int] = {}
    cache: Dict[str, str] = {}
    for code, calls in by_code.items():
        module = _module_of(code.co_filename, cache)
        modules[module] = modules.get(module, 0) + calls
    total = sum(modules.values())
    return {
        "configuration": name,
        "schedules": iterations,
        "steps": steps,
        "calls": total,
        "calls_per_step": round(total / steps, 2),
        "by_module": {
            module: round(calls / steps, 3)
            for module, calls in sorted(modules.items(), key=lambda kv: -kv[1])
        },
    }


def document() -> Dict[str, Any]:
    rows = [census(name) for name, _, _, _ in CONFIGURATIONS]
    by_name = {row["configuration"]: row["calls_per_step"] for row in rows}
    return {
        "seed": SEED,
        "soak": by_name["random"],
        "soak_hooks_mean": round(sum(by_name[n] for n in HOOKS_ROWS) / len(HOOKS_ROWS), 2),
        "rows": rows,
    }


def main(argv: List[str]) -> int:
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    json.dump(document(), sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
