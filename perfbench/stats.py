"""The benchmark's one percentile helper.

Every workload reports its timings through `summarize`: the median, and
the highest percentile that still has at least ten samples beyond it,
together with the sample count. A percentile with fewer samples beyond
it would be set by one or two outliers, so it is not reported at all.
"""

import math
import statistics

# Percentiles considered for the tail, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
MIN_BEYOND = 10


def rank(n, pct):
    """1-based nearest rank of the pct percentile among n samples
    (rounded first, so that 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def nearest_rank(sorted_values, pct):
    """The nearest-rank percentile of already sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[rank(len(sorted_values), pct) - 1]


def beyond(n, pct):
    """How many of n samples lie above the nearest-rank percentile."""
    return n - rank(n, pct)


def tail_percentile(n):
    """The highest ladder percentile with MIN_BEYOND samples beyond it,
    or None when n is too small for any."""
    for pct in TAIL_LADDER:
        if beyond(n, pct) >= MIN_BEYOND:
            return pct
    return None


def summarize(samples):
    """{"n", "median", "tail_pct", "tail"} of a list of numbers.

    tail_pct and tail are None when fewer than MIN_BEYOND samples would
    lie beyond even the median."""
    values = sorted(samples)
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    pct = tail_percentile(n)
    return {
        "n": n,
        "median": statistics.median(values),
        "tail_pct": pct,
        "tail": nearest_rank(values, pct) if pct is not None else None,
    }


def pct_label(pct):
    """p90, p99.5, ... for a percentile."""
    return "p" + ("%g" % pct)


def spread(values):
    """Inter-quartile distance as a share of the median, as
    statistics.quantiles(values, n=4) gives the quartiles."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")
