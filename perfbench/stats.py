"""Summary statistics shared by the runner and the compare mode."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

PERCENTILES = (50, 90, 99, 99.9)


def tail_percentile(n: int) -> Optional[float]:
    """The highest percentile in PERCENTILES with at least ten of n
    samples beyond it (nearest-rank), or None if even p50 has fewer."""
    best = None
    for p in PERCENTILES:
        if n - math.ceil(p * n / 100) >= 10:
            best = p
    return best


def nearest_rank(values: Sequence[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered) / 100), 1) - 1]


def quartiles(values: Sequence[float]):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")
