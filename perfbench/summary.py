"""Order statistics for the benchmark's latency samples and span self times."""
from __future__ import annotations

import math
from statistics import fmean
from typing import Sequence

# A tail percentile is reported only when at least this many samples lie
# beyond it; otherwise it would be one or two outliers, not a tail.
MIN_BEYOND = 10
TAIL_QUANTILES = ((0.999, "p99.9"), (0.99, "p99"))


def quantile(sorted_xs: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an ascending, non-empty sequence."""
    if not sorted_xs:
        raise ValueError("quantile of an empty sample")
    rank = max(1, math.ceil(q * len(sorted_xs)))
    return sorted_xs[rank - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples rank above the nearest-rank ``q`` quantile."""
    return n - max(1, math.ceil(q * n))


def tail(sorted_xs: Sequence[float]) -> tuple[str, float, int, float] | None:
    """The highest of p99.9 and p99 with at least ``MIN_BEYOND`` samples past it.

    Returns ``(label, percentile value, samples beyond, mean of the samples
    beyond)``, or ``None`` when the sample is too small to support either
    percentile. The mean beyond the percentile (the tail's expected
    shortfall) is what the benchmark reports: with a few dozen samples past
    p99, the percentile itself is one order statistic in a steep part of the
    distribution. Resampling one ``so-dense`` run, the quartile spread of
    p99 was about three times that of the mean beyond it.
    """
    n = len(sorted_xs)
    for q, label in TAIL_QUANTILES:
        k = beyond(n, q)
        if k >= MIN_BEYOND:
            return label, quantile(sorted_xs, q), k, fmean(sorted_xs[n - k:])
    return None


def self_times(
    parent: Sequence[int], start: Sequence[float], end: Sequence[float]
) -> list[float]:
    """Per-span self time: the span's duration minus its children's durations.

    Spans come from one thread, so children nest inside their parent and do
    not overlap each other; ``parent[i]`` is ``-1`` for a root span.
    """
    out = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= end[i] - start[i]
    return out
