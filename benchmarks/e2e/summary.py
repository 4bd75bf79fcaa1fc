"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` (0..1) quantile; 0.0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(math.ceil(q * len(ordered)), 1)
    return ordered[rank - 1]


def per(total: float, n: float) -> float:
    """``total / n``, 0.0 when nothing was counted."""
    return total / n if n else 0.0


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def windowed_p99(
    stamped: Sequence[tuple[float, float]],
    t0: float,
    *,
    window: float = 1.0,
    min_samples: int = 1000,
) -> float:
    """Median over ``window``-second windows of each window's p99.

    ``stamped`` holds ``(time, value)`` pairs.  One machine stall lands in
    one window and so cannot set the number, while a stall the program
    causes periodically shows in every window.  Windows with fewer than
    ``min_samples`` values (a partial last window) are left out; when no
    window qualifies the whole-sample p99 is returned.
    """
    buckets: dict[int, list[float]] = {}
    for t, value in stamped:
        buckets.setdefault(int((t - t0) // window), []).append(value)
    per_window = [
        percentile(vals, 0.99)
        for vals in buckets.values()
        if len(vals) >= min_samples
    ]
    if not per_window:
        return percentile([v for _, v in stamped], 0.99)
    return median(per_window)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them — the same rule the acceptance check of the benchmark uses."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
