"""The repo's one performance benchmark (see README.md in this directory).

``python3 -m benchmarks.perf --workload W --seed N --seconds S --trace 0|1``
measures one workload once and prints one JSON result line; with no
``--workload`` it runs every workload 5 times plus a traced pass and
prints the table.  ``BENCHMARK.json`` at the repo root is the manifest.

The benchmark drives ``repro`` only through its public entry points, from
a source checkout.  ``repro`` is importable the way it is for the rest of
the repo (``PYTHONPATH=src``); ``__main__`` adds the checkout's ``src`` for
the one case that has no environment of its own, the manifest's command.
"""

import os
import subprocess
import threading
import time
from typing import List, Tuple

PACKAGE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(PACKAGE_DIR))

#: A child interpreter that takes longer than this is killed and counts
#: as a failed operation; no other wall-clock limit decides an outcome.
CHILD_TIMEOUT = 120


def run_child(command: List[str], timeout: float = CHILD_TIMEOUT) -> Tuple[int, str, str, float]:
    """Run ``command`` from the repo root to its end: ``(exit code, stdout, stderr, spawn-to-
    exit seconds)``.  The wait blocks in the kernel — ``subprocess``'s own
    ``timeout=`` polls at up to 50 ms, which would quantise the timing — and
    a timer thread kills a child that overruns (exit code ``-9``)."""
    start = time.perf_counter()
    child = subprocess.Popen(
        command, cwd=REPO_ROOT, text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    killer = threading.Timer(timeout, child.kill)
    killer.start()
    try:
        out, err = child.communicate()
    finally:
        killer.cancel()
        killer.join()  # no stray thread when a workload forks workers later
    return child.returncode, out, err, time.perf_counter() - start


def checked_child(command: List[str]) -> Tuple[str, float]:
    """``(stdout, seconds)`` of a child that must exit 0."""
    code, out, err, seconds = run_child(command)
    if code != 0:
        raise RuntimeError(f"{' '.join(command)}: exit {code}: {err[-500:]}")
    return out, seconds
