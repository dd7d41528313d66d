#!/usr/bin/env python3
"""What a fresh process pays before its first operation, layer by layer.

``python tools/first_use.py`` (about a second) runs the first-use layers
of the package in the order a benchmark or CLI process meets them, in
this fresh interpreter, and prints one JSON object:

* ``seconds``: ``import_repro`` (importing the package and the two
  modules below, compiling their sources when no bytecode is cached),
  ``registry`` (importing the benchmark programs), ``loc`` (Table 1's
  LoC of the programs of the three analysis suites, what the ``analyze``
  workload counts before its first operation) and ``inline_compile``
  (compiling every machine class of the buggy programs into coroutines,
  what a tester process pays at its first execution of each);
* ``counts``, exact: the programs and LoC counted, the files the class
  index parsed and the classes it left to ``inspect`` (0), the machine
  classes compiled and the distinct coroutines that produced;
* ``loaded``, exact: the ``repro`` modules ``import repro`` loads and
  which of :data:`HEAVY` it loaded (none), the program modules resolving
  ``"Raft"`` loaded (``repro.bench.raft`` alone), and whether the whole
  run mapped OpenSSL through ``_hashlib`` (it does not).

The seconds vary with the host; the counts do not, and
``tests/test_first_use.py`` holds them.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: The suites the ``analyze`` workload lowers: every one but ``faults``.
ANALYSIS_SUITES = ("psharpbench", "soter", "case-study")
#: What ``import repro`` must not load: OpenSSL, the fleet's transport,
#: the fleet itself, the analysis, the core calculus and the benchmarks
#: (the programs among them).
HEAVY = (
    "_hashlib", "ssl", "multiprocessing", "socket", "repro.testing.fleet",
    "repro.analysis", "repro.lang", "repro.bench",
)


def _loaded(prefix: str) -> set:
    """The loaded modules that are ``prefix`` or inside it."""
    return {name for name in sys.modules if name == prefix or name.startswith(prefix + ".")}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    clock = time.perf_counter
    start = clock()
    import repro  # noqa: F401

    package = _loaded("repro")
    heavy = sorted(set().union(*map(_loaded, HEAVY)))
    from repro.bench import registry
    from repro.core import continuations, source

    imported = clock()
    before = _loaded("repro.bench")
    registry.resolve_target("Raft")
    raft = sorted(_loaded("repro.bench") - before)
    benchmarks = registry.all_benchmarks()
    loaded = clock()
    loc = [b.loc() for suite in ANALYSIS_SUITES for b in registry.suite(suite)]
    counted = clock()
    classes = list(dict.fromkeys(
        cls for b in benchmarks if b.buggy is not None for cls in b.buggy.machines
    ))
    for cls in classes:
        continuations.compile_inline_machine(cls)
    compiled = clock()
    coroutines = {
        id(attr)
        for cls in classes
        for name, attr in vars(cls).items()
        if name.startswith(continuations.INLINE_PREFIX)
    }
    print(json.dumps({
        "python": sys.version.split()[0],
        "seconds": {
            "import_repro": round(imported - start, 4),
            "registry": round(loaded - imported, 4),
            "loc": round(counted - loaded, 4),
            "inline_compile": round(compiled - counted, 4),
        },
        "counts": {
            "loc_programs": len(loc),
            "loc_lines": sum(loc),
            **source.counters,
            "compiled_programs": sum(b.buggy is not None for b in benchmarks),
            "compiled_classes": len(classes),
            "methods_compiled": len(coroutines),
        },
        "loaded": {
            "import_repro_modules": len(package),
            "import_repro_heavy": heavy,
            "resolve_raft_programs": raft,
            "hashlib": "_hashlib" in sys.modules,
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
