"""The lowered IR of every Table 1 program, pinned across commits.

``golden_lowering.json`` holds, per analysed program (the cases of
``tests/test_golden_table1.py``), a SHA-256 of the ``Program`` the
frontend builds: every class, method, statement, type and location.
``tests/reference_frontend.py`` shares the frontend's type tables and pass
loop, so only this file sees a change to them.  ``repr(program)`` follows
the hash seed through the builtin taint summaries' frozensets; the digest
is taken over the same text with every set's members sorted, and is
asserted under two seeds.

Regenerate (only when an IR change is intended, and say so in the PR)::

    PYTHONPATH=src python -c "from tests.test_golden_lowering import write; write()"
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys

import pytest

from .test_golden_table1 import ROOT, cases, lower

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_lowering.json")


def canonical(value):
    """``repr(value)``, except that a set lists its members sorted."""
    if dataclasses.is_dataclass(value):
        inner = ", ".join(
            f"{f.name}={canonical(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
            if f.repr
        )
        return f"{type(value).__qualname__}({inner})"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{canonical(k)}: {canonical(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (set, frozenset)):
        return f"{type(value).__name__}({sorted(canonical(m) for m in value)})"
    if isinstance(value, list):
        return "[" + ", ".join(canonical(item) for item in value) + "]"
    if isinstance(value, tuple):
        items = [canonical(item) for item in value]
        return "(" + ", ".join(items) + ("," if len(items) == 1 else "") + ")"
    return repr(value)


def digest(name, variant):
    return hashlib.sha256(canonical(lower(name, variant)).encode()).hexdigest()


def generate():
    return {f"{name}/{variant}": digest(name, variant) for name, variant in cases()}


def write(path=GOLDEN_PATH):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(generate(), fh, indent=1, sort_keys=True)
        fh.write("\n")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_canonical_is_repr_where_no_set_occurs():
    program = lower("MultiPaxos", "correct")
    for klass in program.classes.values():
        if klass.taint_summary is None:
            assert canonical(klass) == repr(klass)
    for machine in program.machines.values():
        assert canonical(machine) == repr(machine)


def test_golden_file_covers_the_analysed_programs(golden):
    assert sorted(golden) == sorted(f"{n}/{v}" for n, v in cases())


@pytest.mark.parametrize("name,variant", cases())
def test_lowered_program_matches_the_golden_file(golden, name, variant):
    assert digest(name, variant) == golden[f"{name}/{variant}"]


def test_lowered_programs_are_the_same_under_two_hash_seeds(golden):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for seed in ("0", "1"):
        env["PYTHONHASHSEED"] = seed
        proc = subprocess.run(
            [sys.executable, "-c",
             "import json; from tests.test_golden_lowering import generate; "
             "print(json.dumps(generate()))"],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == golden, seed
