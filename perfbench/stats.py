"""Order statistics the benchmark reports."""

from __future__ import annotations

import statistics

# Percentiles in tenths of a percent, highest first.
TAIL_LADDER = (999, 990, 900, 500)
TAIL_MIN_BEYOND = 10


def nearest_rank(percentile: float, n: int) -> int:
    """1-based rank of the percentile of n sorted samples: ceil(p * n / 100)."""
    return max(1, -(-round(percentile * 10) * n // 1000))


def tail_rank(n: int):
    """(percentile, 1-based rank) of the highest ladder percentile that has
    at least TAIL_MIN_BEYOND of ``n`` sorted samples beyond it, or None."""
    for permille in TAIL_LADDER:
        rank = nearest_rank(permille / 10, n)
        if n - rank >= TAIL_MIN_BEYOND:
            return permille / 10, rank
    return None


def median_rate(units, durations) -> float:
    """Units per second of one round with each call at its median time.

    ``units[k]`` is the work of call ``k`` of a round and ``durations[k]``
    its times over all rounds.
    """
    return sum(units) / sum(statistics.median(times) for times in durations)
