"""Summary statistics for benchmark samples: median, quartiles, tail percentile."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_SAMPLES_BEYOND = 10


def _rank(n: int, p: float) -> int:
    # Rounding first keeps 99.9% of 10000 at rank 9990, not 9991.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[_rank(len(sorted_values), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def tail_percentile(n: int) -> float | None:
    """The highest candidate percentile with at least ten samples beyond it."""
    for p in TAIL_PERCENTILES:
        if samples_beyond(n, p) >= MIN_SAMPLES_BEYOND:
            return p
    return None


def summarize(values: list[float]) -> dict:
    """Median, quartiles and sample count, plus the tail percentile when
    there are enough samples for one (at least ten samples beyond it)."""
    if not values:
        raise ValueError("summarize needs at least one sample")
    xs = sorted(float(v) for v in values)
    q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) >= 2 else (xs[0], xs[0], xs[0])
    out = {"n": len(xs), "median": statistics.median(xs), "q1": q1, "q3": q3}
    p = tail_percentile(len(xs))
    if p is not None:
        out[f"p{p:g}"] = percentile(xs, p)
    return out
