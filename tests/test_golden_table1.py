"""Table 1 verdicts, pinned across commits.

``golden_table1.json`` holds what the static analysis reported for every
analysed program (the three Table 1 suites, correct and racy variants)
when the file was generated: each violation's machine, site, variable,
failed conditions and loaded fields, the stage that suppressed it, and the
surviving count with xSA off, with xSA, and with xSA + read-only.  A change
to the taint solver, the frontend or the checkers must leave the file
byte-for-byte unchanged.

Regenerate (only when a verdict change is intended, and say so in the PR)::

    PYTHONPATH=src python -c "from tests.test_golden_table1 import write; write()"
"""

import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from repro.analysis import TaintEngine, analyze_program
from repro.analysis.frontend import lower_machines
from repro.bench import registry

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_table1.json")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SUITES = ("psharpbench", "soter", "case-study")
PASSES = {
    "base": dict(xsa=False, readonly=False),
    "xsa": dict(xsa=True, readonly=False),
    "full": dict(xsa=True, readonly=True),
}


def cases():
    """``(benchmark name, variant name)`` of every analysed program."""
    return [
        (b.name, variant)
        for suite in SUITES
        for b in registry.suite(suite)
        for variant in ("correct", "racy")
        if getattr(b, variant) is not None
    ]


def lower(name, variant):
    v = getattr(registry.get(name), variant)
    return lower_machines(v.machines, v.helpers, name=name)


def program_row(name, variant):
    program = lower(name, variant)
    row = {}
    for label, flags in PASSES.items():
        analysis = analyze_program(program, **flags)
        row[label] = {
            "count": analysis.violation_count(),
            "violations": [
                [
                    machine,
                    violation.site.loc_key,
                    violation.site.var,
                    sorted({condition for condition, _ in violation.failures}),
                    sorted(violation.loaded_fields),
                    analysis.suppressed.get(index),
                ]
                for index, (machine, violation) in enumerate(analysis.violations)
            ],
        }
    return row


def generate():
    return {f"{name}/{variant}": program_row(name, variant) for name, variant in cases()}


def write(path=GOLDEN_PATH):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(generate(), fh, indent=1, sort_keys=True)
        fh.write("\n")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_file_covers_the_analysed_programs(golden):
    assert sorted(golden) == sorted(f"{n}/{v}" for n, v in cases())
    assert len(cases()) == 22
    # The file pins suppressions and surviving races, not only clean runs.
    reasons = {
        violation[5]
        for row in golden.values()
        for violation in row["full"]["violations"]
    }
    assert reasons == {None, "xsa", "readonly"}


@pytest.mark.parametrize("name,variant", cases())
def test_program_rows_match_the_golden_file(golden, name, variant):
    assert program_row(name, variant) == golden[f"{name}/{variant}"]


@pytest.mark.parametrize("name,variant", cases())
def test_one_run_fills_all_three_columns(golden, name, variant):
    """``stage_counts()`` of the full run equals the three separate runs
    (whose counts the golden file holds)."""
    analysis = analyze_program(lower(name, variant), **PASSES["full"])
    row = golden[f"{name}/{variant}"]
    assert analysis.stage_counts() == tuple(row[label]["count"] for label in PASSES)
    assert analysis.stage_counts()[2] == analysis.violation_count()


def test_phases_and_solver_counters_are_reported():
    program = lower("MultiPaxos", "correct")
    first = analyze_program(program, **PASSES["full"])
    second = analyze_program(program, **PASSES["full"])
    assert list(first.phase_seconds) == ["summaries", "gives-up", "base", "xsa", "readonly"]
    assert sum(first.phase_seconds.values()) == pytest.approx(first.seconds)
    # Exact, so they repeat; and pinned, so a change to how much the solver
    # does for Table 1 is a visible diff.
    assert first.solver_counters == second.solver_counters == {
        "methods_summarized": 18, "queries": 54, "cache_hits": 17,
        "facts_derived": 6245, "rows_compiled": 351,
    }
    report = first.to_report()
    assert report.solver_counters == first.solver_counters
    text = report.summary()
    assert "phases: summaries" in text and "facts derived 6245" in text
    # A shared engine reports what this analysis added, not the engine's total.
    shared = TaintEngine(program)
    built = dict(shared.counters)
    again = analyze_program(program, taint=shared, **PASSES["full"])
    assert again.solver_counters == {
        name: first.solver_counters[name] - built[name] for name in built
    }


# The solver's work for the full pass (xSA + read-only), summed over every
# analysed program: what the ``analyze`` benchmark workload asks of it.
FULL_PASS_TOTALS = {
    "methods_summarized": 342, "queries": 858, "cache_hits": 226,
    "facts_derived": 90904, "rows_compiled": 3994,
}


def full_pass_totals():
    totals = Counter()
    for name, variant in cases():
        totals.update(analyze_program(lower(name, variant), **PASSES["full"]).solver_counters)
    return dict(totals)


def test_full_pass_solver_totals_are_pinned_under_any_hash_seed():
    assert full_pass_totals() == FULL_PASS_TOTALS
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for seed in ("1", "2"):
        env["PYTHONHASHSEED"] = seed
        proc = subprocess.run(
            [sys.executable, "-c",
             "import json; from tests.test_golden_table1 import full_pass_totals; "
             "print(json.dumps(full_pass_totals()))"],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == FULL_PASS_TOTALS, seed
