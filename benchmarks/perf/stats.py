"""Small order statistics shared by the runner, the load generator and compare.py."""

from __future__ import annotations

import statistics
from typing import Sequence

__all__ = ["percentile", "quartiles", "samples_beyond", "spread", "summarize"]


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) by the rule the driver uses: ``statistics.quantiles(n=4)``.

    One value is its own quartiles; ``statistics.quantiles`` needs two.
    With few values the default (exclusive) method places Q1 and Q3
    outside the observed range; that is the driver's rule, so it is kept.
    """
    if not values:
        raise ValueError("no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for a single value)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def summarize(values: Sequence[float]) -> dict:
    """The figures every reported sample set carries beside its median."""
    q1, median, q3 = quartiles(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "samples": len(values),
        "values": list(values),
    }


def samples_beyond(count: int, fraction: float) -> int:
    """How many of ``count`` sorted samples lie above the ``fraction`` percentile.

    A percentile is reported only with at least ten samples beyond it:
    p99 needs 1,100 samples, p99.9 needs 11,000.
    """
    return count - int(fraction * count) - 1


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    if not sorted_values:
        raise ValueError("no values")
    index = min(len(sorted_values) - 1, int(fraction * len(sorted_values)))
    return sorted_values[index]
