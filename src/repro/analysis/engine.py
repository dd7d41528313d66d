"""Top-level static analysis driver: base ownership analysis + xSA +
read-only extension, producing the :class:`AnalysisReport` consumed by the
Table 1 harness.

The workflow mirrors Section 7.2.1: the base analysis runs first; on
detecting ownership violations the cross-state analysis is run per
machine ("we run a cross-state analysis (xSA) upon detection of an
ownership violation") and matching violations are suppressed; the
read-only extension then optionally downgrades the residual
read-only-sharing pattern.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..errors import AnalysisDiagnostic, AnalysisReport
from ..lang.ir import Program
from .ownership import OwnershipAnalysis, OwnershipViolation
from .readonly import ReadOnlyAnalysis
from .taint import TaintEngine
from .xsa import build_driver


@dataclass
class ProgramAnalysis:
    """Full result: per-machine violations with suppression provenance."""

    program: Program
    violations: List[Tuple[str, OwnershipViolation]] = field(default_factory=list)
    suppressed: Dict[int, str] = field(default_factory=dict)  # index -> reason
    xsa_enabled: bool = True
    readonly_enabled: bool = False
    seconds: float = 0.0
    # Where the time went, and how much the solver did for it.  The
    # counters are exact: the same program always reports the same ones.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    solver_counters: Dict[str, int] = field(default_factory=dict)

    def surviving(self) -> List[Tuple[str, OwnershipViolation]]:
        return [
            pair
            for index, pair in enumerate(self.violations)
            if index not in self.suppressed
        ]

    @property
    def verified(self) -> bool:
        return not self.surviving()

    def to_report(self) -> AnalysisReport:
        report = AnalysisReport(
            program=self.program.name,
            xsa_enabled=self.xsa_enabled,
            readonly_enabled=self.readonly_enabled,
            seconds=self.seconds,
            phase_seconds=dict(self.phase_seconds),
            solver_counters=dict(self.solver_counters),
        )
        for index, (machine, violation) in enumerate(self.violations):
            for diagnostic in violation.diagnostics(machine):
                diagnostic.suppressed_by = self.suppressed.get(index)
                report.diagnostics.append(diagnostic)
        return report

    def violation_count(self) -> int:
        """Number of surviving give-up sites flagged (Table 1 counts
        violations per reported site, not per failed condition)."""
        return len(self.surviving())

    def stage_counts(self) -> Tuple[int, int, int]:
        """Violations flagged by the base analysis, left after xSA, and left
        after the read-only extension — Table 1's three columns from one
        run.  A stage only ever re-judges what the stages before it left,
        so ``suppressed`` records exactly what separate runs would count."""
        reasons = list(self.suppressed.values())
        base = len(self.violations)
        after_xsa = base - reasons.count("xsa")
        return base, after_xsa, after_xsa - reasons.count("readonly")


def analyze_program(
    program: Program,
    xsa: bool = True,
    readonly: bool = False,
    taint: Optional[TaintEngine] = None,
) -> ProgramAnalysis:
    """Run the complete static data race analysis on a program."""
    start = time.perf_counter()
    taint_engine = taint if taint is not None else TaintEngine(program)
    counters_before = dict(taint_engine.counters) if taint is not None else {}
    summaries_done = time.perf_counter()
    ownership = OwnershipAnalysis(program, taint_engine)
    gives_up_done = time.perf_counter()

    analysis = ProgramAnalysis(program, xsa_enabled=xsa, readonly_enabled=readonly)
    for machine_name in program.machines:
        for violation in ownership.check_machine(machine_name):
            analysis.violations.append((machine_name, violation))
    for violation in ownership.check_helpers():
        analysis.violations.append(("<helpers>", violation))
    base_done = time.perf_counter()

    if xsa and analysis.violations:
        _run_xsa(program, ownership, analysis)
    xsa_done = time.perf_counter()

    if readonly and analysis.surviving():
        read_only = ReadOnlyAnalysis(program, ownership)
        for index, (machine_name, violation) in enumerate(analysis.violations):
            if index in analysis.suppressed or machine_name == "<helpers>":
                continue
            if read_only.suppresses(machine_name, violation):
                analysis.suppressed[index] = "readonly"
    end = time.perf_counter()

    analysis.seconds = end - start
    analysis.phase_seconds = {
        "summaries": summaries_done - start,
        "gives-up": gives_up_done - summaries_done,
        "base": base_done - gives_up_done,
        "xsa": xsa_done - base_done,
        "readonly": end - xsa_done,
    }
    analysis.solver_counters = {
        name: count - counters_before.get(name, 0)
        for name, count in taint_engine.counters.items()
    }
    return analysis


def _run_xsa(
    program: Program,
    ownership: OwnershipAnalysis,
    analysis: ProgramAnalysis,
) -> None:
    """Re-judge machine-level violations on the overarching driver CFG.

    Only the driver sites a flagged violation matches are checked, each
    ``loc_key`` until one copy of it survives: inlining may copy a site
    many times, and one surviving copy keeps the base verdict."""
    flagged: Dict[str, Set[str]] = {}
    for index, (machine, violation) in enumerate(analysis.violations):
        if machine != "<helpers>" and index not in analysis.suppressed:
            flagged.setdefault(machine, set()).add(violation.site.loc_key)
    for machine_name, keys in sorted(flagged.items()):
        driver = build_driver(program, machine_name)
        if driver is None:
            continue  # outside the liftable fragment: keep base verdicts
        surviving_keys = set()
        for site in ownership.give_up_sites(driver.info):
            key = site.loc_key
            if key in keys and key not in surviving_keys:
                if ownership.check_site(site) is not None:
                    surviving_keys.add(key)
        for index, (machine, violation) in enumerate(analysis.violations):
            if machine != machine_name or index in analysis.suppressed:
                continue
            if violation.site.loc_key not in surviving_keys:
                analysis.suppressed[index] = "xsa"
