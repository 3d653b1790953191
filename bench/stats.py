"""Latency summaries: nearest-rank percentiles and the tail-percentile rule."""

from __future__ import annotations

from fractions import Fraction
from math import ceil
from typing import Sequence

# Candidate tail percentiles, highest last.  A percentile is reported only
# when at least MIN_BEYOND samples lie beyond it.
TAIL_PERCENTILES = (Fraction(90), Fraction(99), Fraction(999, 10))
MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], p: Fraction | float) -> float:
    """The p-th percentile by nearest rank: the ceil(p/100 * n)-th smallest."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p} outside (0, 100]")
    ordered = sorted(values)
    rank = ceil(Fraction(p) / 100 * len(ordered))
    return ordered[max(rank, 1) - 1]


def tail_percentile(n: int) -> Fraction | None:
    """Highest candidate percentile with at least MIN_BEYOND of n samples beyond it."""
    best = None
    for p in TAIL_PERCENTILES:
        if n * (100 - p) / 100 >= MIN_BEYOND:
            best = p
    return best
