"""Order statistics used by the benchmark report."""

from __future__ import annotations

import math

TAIL_CANDIDATES = (99, 90, 75)
MIN_BEYOND_TAIL = 10


def percentile(values, p):
    """Linearly interpolated p-th percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no values")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n_items):
    """The highest of p99/p90/p75 that leaves at least ten of n_items beyond
    it, as (percentile, rule_met).  When none does, p75 is used and
    rule_met is False."""
    for p in TAIL_CANDIDATES:
        if n_items * (100 - p) // 100 >= MIN_BEYOND_TAIL:
            return p, True
    return TAIL_CANDIDATES[-1], False


def slowest_per_item(latency_lists):
    """Each item's slowest latency over passes.  ``latency_lists`` holds one
    list per pass, all with the same items in the same order."""
    if not latency_lists or len({len(xs) for xs in latency_lists}) != 1:
        raise ValueError("passes must hold the same items")
    return [max(col) for col in zip(*latency_lists)]


def error_rate(failed, attempted):
    """Jeffreys estimate (failed + 1/2) / (attempted + 1) of the share of
    items that fail.  It is never zero, so a ratio against a clean parent
    stays finite: with no failures it reads 0.5 / (attempted + 1), and one
    failure triples it."""
    if attempted < 1:
        raise ValueError("no items attempted")
    return (failed + 0.5) / (attempted + 1)
