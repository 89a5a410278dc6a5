"""Percentiles under the "at least ten samples beyond" rule.

A timing is reported as its median and the highest of p99.9, p99, p90 that
has at least ten samples beyond it (never above the percentile asked for).
Ranks are nearest-rank in integer arithmetic, so p99 of 1,000 samples is
exactly the 990th.
"""

MIN_BEYOND = 10


def nearest_rank(n, permille):
    """1-based rank of the permille-th percentile: ceil(n * permille / 1000)."""
    return max(1, (n * permille + 999) // 1000)


def percentile(sorted_values, permille):
    if not sorted_values:
        return 0.0
    return sorted_values[min(nearest_rank(len(sorted_values), permille),
                             len(sorted_values)) - 1]


def samples_beyond(n, permille):
    return n - min(n, nearest_rank(n, permille)) if n else 0


def reportable_permille(n, want):
    """Highest of 999, 990, 900, 500 not above `want` with MIN_BEYOND
    samples beyond it; 0 when none qualifies."""
    for p in (999, 990, 900, 500):
        if p <= want and samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return 0


def summarize(values, want):
    """(value, permille) of a population at percentile `want` (500 = median).

    The median is always reported. A tail with too few samples beyond it
    falls back to the highest reportable percentile, and to the maximum
    (permille 1000) when there is none.
    """
    v = sorted(values)
    if want == 500 or want == 1000:
        return (percentile(v, want) if want == 500 else (v[-1] if v else 0.0)), want
    p = reportable_permille(len(v), want)
    if p == 0:
        return (v[-1] if v else 0.0), 1000
    return percentile(v, p), p
