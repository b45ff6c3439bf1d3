"""Summary statistics for the benchmark's timings.

A tail percentile is only reported when at least ``MIN_BEYOND`` samples
lie beyond it; with fewer, the "p95" of a run would be one or two
outliers and could not be told apart from noise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10

#: Percentiles the report may name, lowest first.
CANDIDATE_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


def samples_beyond(n: int, p: float) -> int:
    """Samples above the nearest-rank ``p``-th percentile of ``n``
    (rank computed exactly, so p99.9 of 10000 is rank 9990)."""
    return n - max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank ``p``-th percentile; raises ``ValueError`` when fewer
    than :data:`MIN_BEYOND` samples lie beyond it."""
    n = len(samples)
    beyond = samples_beyond(n, p)
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {n} samples has {beyond} beyond it; "
            f"need at least {MIN_BEYOND}"
        )
    return sorted(samples)[n - beyond - 1]


def highest_percentile(n: int) -> Optional[float]:
    """The highest candidate percentile that ``n`` samples support."""
    supported = [p for p in CANDIDATE_PERCENTILES if samples_beyond(n, p) >= MIN_BEYOND]
    return supported[-1] if supported else None
