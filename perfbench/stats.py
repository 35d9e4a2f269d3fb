"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math
import statistics

# Percentiles the tail metric may land on, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.95, 99.99)
MIN_BEYOND = 10


def nearest_rank(sorted_values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile: the value and its 1-based rank."""
    k = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[k - 1], k


def tail(values: list[float]) -> tuple[float, float, int]:
    """Latency at the highest ladder percentile with at least MIN_BEYOND
    samples strictly beyond it.

    Returns (value, percentile, samples beyond).  With fewer than
    2 * MIN_BEYOND samples no percentile qualifies and the maximum is
    returned with percentile 100 and 0 samples beyond.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for pct in TAIL_LADDER:
        value, k = nearest_rank(ordered, pct)
        if n - k >= MIN_BEYOND:
            best = (value, pct, n - k)
    if best is None:
        return ordered[-1], 100.0, 0
    return best


def median(values: list[float]) -> float:
    return statistics.median(values)


def quartile_spread(values: list[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
