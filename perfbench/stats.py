"""Summary statistics shared by the runner, the sweep and the compare tool."""

from __future__ import annotations

import statistics
import typing as t

#: The tail is the highest percentile with at least this many samples
#: beyond it.
TAIL_BEYOND = 10


def median(values: t.Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: t.Sequence[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples)`` of the tail of ``values``.

    The value is the largest sample that still has ``TAIL_BEYOND``
    samples above it; its percentile is the share of samples at or
    below it.  With too few samples the maximum is returned.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    index = n - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / n, n


def quartiles(values: t.Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) < 2:
        only = values[0] if values else 0.0
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: t.Sequence[float]) -> float:
    """Inter-quartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0
