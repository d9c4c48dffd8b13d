"""Arithmetic the benchmark reports with: medians, tails and self time.

Kept free of the program under test so the rules can be unit-tested on
hand-made numbers (see ``test_perfbench.py``).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it."""

    value: float
    percentile: float
    count: int


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> Tail:
    """Nearest-rank tail: the sample with exactly 10 samples above it.

    For ``n`` samples that is rank ``n - 10`` (1-based), i.e. the
    ``100 * (n - 10) / n``-th percentile. Below 20 samples that rank
    falls under the median, so the median is reported instead (and its
    percentile, 50, says so).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    if n < 2 * TAIL_BEYOND:
        return Tail(median(ordered), 50.0, n)
    rank = n - TAIL_BEYOND
    return Tail(float(ordered[rank - 1]), 100.0 * rank / n, n)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children.

    ``spans`` are ``(span_id, parent_id, start, end)`` tuples; a root has
    parent ``None``. Spans come from nested context managers on one
    thread, so children never overlap each other or outlast their parent.
    """
    own = {sid: end - start for sid, _parent, start, end in spans}
    for _sid, parent, start, end in spans:
        if parent is not None:
            own[parent] -= end - start
    return own
