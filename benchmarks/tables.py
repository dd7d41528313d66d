"""Shared table-building code for the Table 1 / Table 2 harnesses.

Both the pytest-benchmark suites and the standalone ``run_table*.py``
scripts build their rows here, so the printed tables and the benchmarked
operations stay in sync.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro import AnalysisReport, Campaign, DfsStrategy, RandomStrategy, TestConfig
from repro.analysis import analyze_program
from repro.analysis.frontend import PythonFrontend, lower_machines
from repro.bench import Benchmark, all_benchmarks, get, suite
from repro.chess import chess_campaign
from repro.soter import soter_analyze

PSHARPBENCH = [
    "BoundedAsync",
    "German",
    "BasicPaxos",
    "TwoPhaseCommit",
    "Chord",
    "MultiPaxos",
    "Raft",
    "ChReplication",
]
SOTER_SUITE = ["Leader", "Pi", "Chameneos", "Swordfish"]


def registry_name(name: str) -> str:
    from repro.bench import resolve

    return resolve(name)


# ---------------------------------------------------------------------------
# Table 1: program statistics + static analysis
# ---------------------------------------------------------------------------
@dataclass
class Table1Row:
    name: str
    loc: int
    machines: int
    transitions: int
    action_bindings: int
    seconds: float
    fp_no_xsa: int
    fp_xsa: int
    verified: bool
    fp_readonly: Optional[int] = None  # violations left with the extension
    racy_seconds: Optional[float] = None
    racy_found_all: Optional[bool] = None
    report: Optional[AnalysisReport] = None  # phases + solver counters
    lower_seconds: float = 0.0
    lower_counters: Optional[Dict[str, int]] = None  # PythonFrontend.counters

    def format(self) -> str:
        verified = "yes" if self.verified else "NO"
        racy = (
            f" racy: {self.racy_seconds:.3f}s found-all={'yes' if self.racy_found_all else 'NO'}"
            if self.racy_seconds is not None
            else ""
        )
        readonly = (
            f" +readonly: {self.fp_readonly}" if self.fp_readonly is not None else ""
        )
        return (
            f"{self.name:<15} LoC={self.loc:<5} #M={self.machines:<2} "
            f"#ST={self.transitions:<3} #AB={self.action_bindings:<3} "
            f"time={self.seconds:.3f}s FP(no-xSA)={self.fp_no_xsa} "
            f"FP(xSA)={self.fp_xsa}{readonly} verified={verified}{racy}"
        )


def table1_row(benchmark: Benchmark) -> Table1Row:
    stats = benchmark.statistics()
    # lower_machines(), spelled out to keep the frontend's counters.
    start = time.perf_counter()
    frontend = PythonFrontend(
        benchmark.correct.machines, benchmark.correct.helpers, name=benchmark.name
    )
    program = frontend.build()
    lower_seconds = time.perf_counter() - start

    # One run fills all three columns: `suppressed` records which stage
    # discharged what.  `time=` is that one analysis, as in the paper.
    analysis = analyze_program(program, xsa=True, readonly=True)
    fp_no_xsa, fp_xsa, fp_readonly = analysis.stage_counts()

    row = Table1Row(
        name=benchmark.name,
        loc=benchmark.loc(),
        machines=stats["machines"],
        transitions=stats["transitions"],
        action_bindings=stats["action_bindings"],
        seconds=analysis.seconds,
        fp_no_xsa=fp_no_xsa,
        fp_xsa=fp_xsa,
        fp_readonly=fp_readonly,
        verified=analysis.verified,
        report=analysis.to_report(),
        lower_seconds=lower_seconds,
        lower_counters=frontend.counters,
    )

    if benchmark.racy is not None:
        start = time.perf_counter()
        racy_program = lower_machines(
            benchmark.racy.machines,
            benchmark.racy.helpers,
            name=f"{benchmark.name}-racy",
        )
        racy = analyze_program(racy_program, xsa=True, readonly=True)
        row.racy_seconds = time.perf_counter() - start
        row.racy_found_all = racy.violation_count() >= benchmark.seeded_races
    return row


def build_table1() -> List[Table1Row]:
    rows = []
    for name in PSHARPBENCH + SOTER_SUITE + ["AsyncSystem"]:
        rows.append(table1_row(get(registry_name(name))))
    return rows


def soter_comparison() -> Dict[str, Dict[str, int]]:
    """Our verdict vs the SOTER-style baseline on the SOTER-P# suite."""
    out: Dict[str, Dict[str, int]] = {}
    for name in SOTER_SUITE:
        benchmark = get(name)
        program = lower_machines(
            benchmark.correct.machines, benchmark.correct.helpers, name=name
        )
        ours = analyze_program(program, xsa=True, readonly=True)
        baseline = soter_analyze(program)
        out[name] = {
            "ours": ours.violation_count(),
            "soter": len(baseline),
        }
    return out


# ---------------------------------------------------------------------------
# Table 2: bug finding
# ---------------------------------------------------------------------------
@dataclass
class Table2Cell:
    scheduler: str
    schedules: int
    sched_points: float
    schedules_per_second: float
    bug_found: bool
    percent_buggy: Optional[float] = None
    first_bug_iteration: int = -1

    def format(self) -> str:
        buggy = (
            f" %buggy={self.percent_buggy:.0f}%"
            if self.percent_buggy is not None
            else ""
        )
        return (
            f"{self.scheduler:<14} #Sch={self.schedules:<5} "
            f"#SP={self.sched_points:<8.0f} Sch/s={self.schedules_per_second:<8.1f} "
            f"bug={'yes' if self.bug_found else 'no '}{buggy}"
        )


def run_cell(
    name: str,
    scheduler: str,
    max_iterations: int = 200,
    time_limit: float = 20.0,
    seed: int = 7,
    estimate_buggy: bool = False,
) -> Table2Cell:
    benchmark = get(registry_name(name))
    assert benchmark.buggy is not None
    main = benchmark.buggy.main

    stop = not estimate_buggy
    if scheduler == "psharp-dfs":
        engine = Campaign(
            TestConfig(
                main,
                max_iterations=max_iterations,
                time_limit=time_limit,
                stop_on_first_bug=True,
                max_steps=5000,
            ),
            strategy=DfsStrategy(),
        )
    elif scheduler == "psharp-random":
        engine = Campaign(
            TestConfig(
                main,
                max_iterations=max_iterations,
                time_limit=time_limit,
                stop_on_first_bug=stop,
                max_steps=5000,
            ),
            strategy=RandomStrategy(seed=seed),
        )
    elif scheduler == "chess-rd-on":
        engine = chess_campaign(
            main, strategy=DfsStrategy(), race_detection=True,
            max_iterations=max_iterations, time_limit=time_limit,
            stop_on_first_bug=True, max_steps=20000,
        )
    elif scheduler == "chess-rd-off":
        engine = chess_campaign(
            main, strategy=DfsStrategy(), race_detection=False,
            max_iterations=max_iterations, time_limit=time_limit,
            stop_on_first_bug=True, max_steps=20000,
        )
    else:
        raise ValueError(scheduler)

    report = engine.run()
    return Table2Cell(
        scheduler=scheduler,
        schedules=report.iterations,
        sched_points=report.mean_scheduling_points,
        schedules_per_second=report.schedules_per_second,
        bug_found=report.bug_found,
        percent_buggy=report.percent_buggy if estimate_buggy else None,
        first_bug_iteration=report.first_bug_iteration,
    )


TABLE2_SCHEDULERS = ["chess-rd-on", "chess-rd-off", "psharp-dfs", "psharp-random"]


def build_table2(
    max_iterations: int = 200, time_limit: float = 20.0
) -> Dict[str, List[Table2Cell]]:
    table: Dict[str, List[Table2Cell]] = {}
    for name in PSHARPBENCH:
        cells = []
        for scheduler in TABLE2_SCHEDULERS:
            cells.append(
                run_cell(
                    name,
                    scheduler,
                    max_iterations=max_iterations,
                    time_limit=time_limit,
                    estimate_buggy=(scheduler == "psharp-random"),
                )
            )
        table[name] = cells
    return table
