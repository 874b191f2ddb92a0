"""Arithmetic of the benchmark: medians, the reported tail percentile and
span self times. Kept free of I/O so `test_stats.py` can check it."""
import math
import statistics
from fractions import Fraction

# Percentiles considered for the tail figure printed next to a median.
PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def median(xs):
    return statistics.median(xs) if xs else float("nan")


def tail_percentile(xs):
    """Highest percentile in PERCENTILES with at least ten samples beyond
    it, as `(p, value)`; None when fewer than 20 samples exist.

    The p-th percentile is the sample of nearest rank ceil(p/100 * n)
    (1-based); the samples beyond it are the n - rank larger ones.
    """
    s = sorted(xs)
    n = len(s)
    best = None
    for p in PERCENTILES:
        rank = max(1, math.ceil(Fraction(str(p)) * n / 100))
        if n - rank >= 10:
            best = (p, s[rank - 1])
    return best


def covered(interval, others):
    """Length of the part of `interval` = (start, end) that the union of
    the `others` intervals covers."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in others if min(b, hi) > max(a, lo))
    total, cur_a, cur_b = 0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span, by id: its duration minus the part of its
    interval covered by its direct children (overlapping children counted
    once; children outside the interval not at all)."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
    return {s["id"]: (s["end_ns"] - s["start_ns"])
            - covered((s["start_ns"], s["end_ns"]), children.get(s["id"], []))
            for s in spans}
