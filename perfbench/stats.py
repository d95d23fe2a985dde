"""Order statistics shared by the runner, the compare command and the tests."""

from __future__ import annotations

import math
import statistics


def percentile(values, pct):
    """Nearest-rank percentile: the smallest value with at least pct percent of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < pct <= 100:
        raise ValueError("pct must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(pct / 100 * len(ordered))
    return ordered[rank - 1]


def beyond(count, pct):
    """How many of `count` samples lie strictly above the nearest-rank
    percentile position."""
    return count - math.ceil(pct / 100 * count)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_share(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf
