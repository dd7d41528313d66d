"""The few statistics the benchmark reports (no ``repro`` imports here)."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; 0.0 for an empty input or any non-positive value."""
    logs = []
    for value in values:
        if value <= 0:
            return 0.0
        logs.append(math.log(value))
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(values, n=4)`` gives
    them (a single value stands for all three)."""
    if len(values) < 2:
        return [values[0]] * 3 if values else [0.0] * 3
    return statistics.quantiles(values, n=4)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def median_by(pairs: Iterable[tuple]) -> Dict[str, float]:
    """``{key: median of its values}`` from ``(key, value)`` pairs."""
    groups: Dict[str, List[float]] = {}
    for key, value in pairs:
        groups.setdefault(key, []).append(value)
    return {key: statistics.median(values) for key, values in groups.items()}
