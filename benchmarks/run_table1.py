"""Print Table 1 (program statistics + static analysis) and the SOTER
comparison.  Usage: ``python benchmarks/run_table1.py``"""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from tables import build_table1, soter_comparison  # noqa: E402


def columns(rows, cells):
    """One line per row of ``cells(row)``, a name -> number dict."""
    names = list(cells(rows[0]))
    width = max(map(len, names)) + 2
    print(f"{'':<17}" + "".join(f"{name.replace('_', ' '):>{width}}" for name in names))
    for row in rows:
        values = cells(row)
        print(f"{row.name:<17}" + "".join(
            f"{values[n]:>{width}.1f}" if isinstance(values[n], float) else f"{values[n]:>{width}}"
            for n in names))
    print()


def main():
    print("=" * 100)
    print("Table 1 — program statistics and results of the P# static analyzer")
    print("=" * 100)
    rows = build_table1()
    for row in rows:
        print(row.format())
    print()
    print("Where the time went: ms to lower, then per analysis phase")
    columns(rows, lambda row: {"lower ms": row.lower_seconds * 1e3,
                               **{p: s * 1e3 for p, s in row.report.phase_seconds.items()}})
    print("What the frontend did for it (exact counters)")
    columns(rows, lambda row: row.lower_counters)
    print("What the taint solver did for it (exact counters)")
    columns(rows, lambda row: row.report.solver_counters)
    print("SOTER-P# precision comparison (Sections 5.5, 7.2.1)")
    for name, row in soter_comparison().items():
        print(
            f"  {name:<12} ours: {row['ours']} violations   "
            f"SOTER-style: {row['soter']} false positives"
        )


if __name__ == "__main__":
    main()
