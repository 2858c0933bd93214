"""The benchmark's own arithmetic: percentiles, ratios and self time.

Kept free of any ``repro`` import so it can be tested on its own.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Iterable, Sequence

__all__ = [
    "MIN_BEYOND",
    "InsufficientSamples",
    "min_samples",
    "percentile",
    "ratio",
    "median",
    "quartiles",
    "self_times",
]

#: A percentile is reported only when at least this many samples lie
#: beyond it (p99 needs 1000 samples, p50 needs 20).
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """Too few samples for the requested percentile."""


def min_samples(pct: int) -> int:
    """Smallest sample count with :data:`MIN_BEYOND` samples beyond ``pct``.

    Integer arithmetic on purpose: ``10 / (1 - 0.99)`` is 1000.0000000000009
    in floating point, which would round the p99 requirement up to 1001.
    """
    if not 0 < pct < 100:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    return math.ceil(MIN_BEYOND * 100 / (100 - pct))


def percentile(values: Sequence[float], pct: int) -> float:
    """Nearest-rank ``pct``-th percentile; raises when the sample is too small."""
    n = len(values)
    need = min_samples(pct)
    if n < need:
        raise InsufficientSamples(
            f"p{pct} needs at least {need} samples ({MIN_BEYOND} beyond it), got {n}"
        )
    ordered = sorted(values)
    rank = math.ceil(pct * n / 100)
    return ordered[rank - 1]


def ratio(numerator: float, base: float) -> tuple[float, float]:
    """``(numerator / base, base)``; a ratio is always given with its base.

    An empty base yields 0.0 rather than an error: a layer the workload
    never enters has a zero ratio over a zero base, and the base says so.
    """
    return (numerator / base if base else 0.0), base


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them."""
    q1, q2, q3 = statistics.quantiles(list(values), n=4)
    return q1, q2, q3


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(
    spans: Iterable[tuple[int, int | None, float, float]],
) -> dict[int, float]:
    """Self time of every span: its duration minus what its children cover.

    ``spans`` are ``(span_id, parent_id, start, end)``; a child's interval
    is clipped to its parent's, and overlapping children count once.
    """
    spans = list(spans)
    bounds = {sid: (start, end) for sid, _, start, end in spans}
    children: dict[int, list[tuple[float, float]]] = {}
    for _, parent, start, end in spans:
        if parent is not None and parent in bounds:
            p_start, p_end = bounds[parent]
            lo, hi = max(start, p_start), min(end, p_end)
            if hi > lo:
                children.setdefault(parent, []).append((lo, hi))
    return {
        sid: (end - start) - _covered(children.get(sid, []))
        for sid, (start, end) in bounds.items()
    }
