"""Order statistics used for the benchmark's reported figures."""

from __future__ import annotations

# Percentiles in tenths, so that the ten-samples rule is integer arithmetic.
TAIL_LADDER = (500, 750, 900, 950, 990, 999)
MIN_TAIL_SAMPLES = 40
BEYOND = 10


def tail_percentile(samples):
    """Highest ladder percentile with at least ten of `samples` beyond it.

    None below forty samples, where a percentile past the median would not
    be a tail.
    """
    if samples < MIN_TAIL_SAMPLES:
        return None
    best = None
    for tenths in TAIL_LADDER:
        if samples * (1000 - tenths) >= BEYOND * 1000:
            best = tenths
    return best / 10


def _rank(count, percentile):
    # 1-based nearest rank, in integer arithmetic on tenths of a percent.
    return max(1, -(-round(percentile * 10) * count // 1000))


def nearest_rank(values, percentile):
    """The smallest value with at least `percentile` percent of values at or below it."""
    return sorted(values)[_rank(len(values), percentile) - 1]


def beyond(values, percentile):
    """How many values lie past the nearest-rank percentile."""
    return len(values) - _rank(len(values), percentile)

