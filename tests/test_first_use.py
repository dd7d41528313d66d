"""``tools/first_use.py``'s exact counts, from a fresh interpreter.

The tool times what a new process pays before its first operation; the
times are the host's, so only the counts are held here: each file with
a Table 1 class is parsed once for its class spans, no class falls back
to ``inspect``, and compiling the buggy programs' machine classes
produces the same coroutines.  And a process loads only what it runs:
``import repro`` is the programming model and the errors (six modules;
no OpenSSL, fleet transport, analysis, core calculus or program),
resolving ``"Raft"`` imports that one program, and nothing in the run
maps OpenSSL (``_hashlib``) — the digests are CPython's own (``_sha2``
from 3.12, ``_sha256`` before it, and ``_blake2``).
"""

import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "first_use.py"


def test_first_use_counts_are_exact():
    done = subprocess.run(
        [sys.executable, str(TOOL)], capture_output=True, text=True, timeout=120, check=True
    )
    row = json.loads(done.stdout)
    assert set(row["seconds"]) == {"import_repro", "registry", "loc", "inline_compile"}
    assert row["counts"] == {
        "loc_programs": 13,
        "loc_lines": 1454,
        "class_files_parsed": 10,
        "class_fallbacks": 0,
        "compiled_programs": 13,
        "compiled_classes": 39,
        "methods_compiled": 81,
    }
    assert row["loaded"] == {
        "import_repro_modules": 6,
        "import_repro_heavy": [],
        "resolve_raft_programs": ["repro.bench.raft"],
        "hashlib": False,
    }
