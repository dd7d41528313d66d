"""Print Table 1 (program statistics + static analysis) and the SOTER
comparison.  Usage: ``python benchmarks/run_table1.py``"""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from tables import build_table1, soter_comparison  # noqa: E402


def main():
    print("=" * 100)
    print("Table 1 — program statistics and results of the P# static analyzer")
    print("=" * 100)
    rows = build_table1()
    for row in rows:
        print(row.format())
    print()
    print("Where the time went: ms per phase, and the taint solver's exact counters")
    phases = list(rows[0].report.phase_seconds)
    counters = list(rows[0].report.solver_counters)
    print(f"{'':<17}" + "".join(f"{p:>10}" for p in phases)
          + "".join(f"{c.replace('_', ' '):>15}" for c in counters))
    for row in rows:
        report = row.report
        print(f"{row.name:<17}"
              + "".join(f"{report.phase_seconds[p] * 1e3:>10.1f}" for p in phases)
              + "".join(f"{report.solver_counters[c]:>15}" for c in counters))
    print()
    print("SOTER-P# precision comparison (Sections 5.5, 7.2.1)")
    for name, row in soter_comparison().items():
        print(
            f"  {name:<12} ours: {row['ours']} violations   "
            f"SOTER-style: {row['soter']} false positives"
        )


if __name__ == "__main__":
    main()
