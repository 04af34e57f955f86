"""Order statistics for the benchmark's latency metrics."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# A tail percentile is reported only with at least this many samples above it.
TAIL_MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p % of
    the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(p, len(ordered)) - 1]


def _rank(p: float, n: int) -> int:
    # Rounded first so that 99.9 % of 10000 is rank 9990, not 9991.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def tail(values) -> tuple[float, float] | None:
    """``(p, value)`` for the highest ladder percentile that leaves at least
    ``TAIL_MIN_BEYOND`` samples beyond it, or ``None`` when even the median
    does not."""
    n = len(values)
    best = None
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= TAIL_MIN_BEYOND:
            best = (p, percentile(values, p))
    return best


def median(values) -> float:
    return float(statistics.median(values))
