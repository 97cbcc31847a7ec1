"""Arithmetic behind the benchmark's figures.

Kept apart from the workloads so that it can be tested on hand-made
numbers: the tail percentile, the ratios with their bases, self time
under child spans, and the quartile spread used to judge steadiness.
"""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(samples):
    """The highest percentile that still has at least TAIL_BEYOND samples
    above it.

    With N samples sorted ascending, that is the sample with exactly
    TAIL_BEYOND samples ranked above it, at percentile
    100 * (N - TAIL_BEYOND) / N. Returns (value, percentile, N), or None
    when N <= TAIL_BEYOND.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return None
    return ordered[n - 1 - TAIL_BEYOND], 100.0 * (n - TAIL_BEYOND) / n, n


def ratio(numerator: float, base: float) -> float:
    """numerator / base, and 0.0 when the base is empty."""
    return numerator / base if base else 0.0


def new_state_ratio(visited: int, expanded: int, moves_per_state: int):
    """Share of generated successors that were new states.

    The base is every successor the search could generate:
    states expanded x moves tried per state. Returns (ratio, base).
    """
    base = expanded * moves_per_state
    return ratio(visited, base), base


def equivalent_ratio(equivalent: int, mutants: int):
    """Share of mutant draws that were equivalent (still reached the flag).

    The base is every draw: the equivalent ones `mutate_trace` rejected
    plus the mutants it returned. Returns (ratio, base).
    """
    base = equivalent + mutants
    return ratio(equivalent, base), base


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover, and minus its `hot` time (calls timed in aggregate
    rather than as spans).

    `spans` is a sequence of objects with start, end, parent (an index
    into `spans`, or None) and hot.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.end - span.start - span.hot
        - covered(children.get(i, ()), span.start, span.end)
        for i, span in enumerate(spans)
    ]


def spread(values) -> float:
    """Distance between the first and third quartile, as a share of the
    median (statistics.quantiles with n=4)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median
