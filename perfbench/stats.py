"""Order statistics, spreads and comparison verdicts used by the benchmark."""

from __future__ import annotations

import statistics

# A tail percentile is only reported with at least this many samples beyond it.
TAIL_BEYOND = 10


def tail(values) -> tuple[float, float, int]:
    """The highest order statistic with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, n): the value of rank n - TAIL_BEYOND in
    ascending order (1-based), the percentile that rank stands for, and the
    sample count.  Raises ValueError when there are too few samples.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail, have {n}")
    rank = n - TAIL_BEYOND
    return xs[rank - 1], 100.0 * rank / n, n


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


BETTER = "better"
SAME = "same"
WORSE = "worse"
UNRESOLVED = "unresolved"


def verdict(parent, change, better: str, bound: float) -> str:
    """Compare two sets of runs of one metric under the metric's bound.

    ``parent`` and ``change`` are run values in pairing order (runs with the
    same seed at the same position).  A gain needs the change to win at
    least nine tenths of the pairs and the medians to differ by more than
    the parent's quartile distance; every change run beating every parent
    run is a gain too.  Otherwise a spread wider than the bound on either
    side is unresolved, a median worse by more than the bound is worse, and
    anything else is the same.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    parent, change = list(parent), list(change)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)

    if all(sign * c < sign * p for c in change for p in parent):
        return BETTER
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * c < sign * p)
    if pairs and wins >= 0.9 * len(pairs) and sign * (pm - cm) > p3 - p1:
        return BETTER
    if max(relative_spread(parent), relative_spread(change)) > bound:
        return UNRESOLVED
    if sign * (cm - pm) > bound * abs(pm):
        return WORSE
    return SAME
