"""Order statistics for the benchmark's latency samples.

A p90 has ten samples beyond it only when there are at least 100
samples, so :func:`p90` refuses smaller sets instead of reporting a
tail estimate that is really the maximum of a handful of points.
"""

from __future__ import annotations

import math
import statistics
from typing import Hashable, Sequence

#: Fewest samples a p90 is computed from.
MIN_P90_SAMPLES = 100


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than it needs."""


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1] of ``values``."""
    if not values:
        raise TooFewSamples("quantile of an empty sample")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def p50(values: Sequence[float]) -> float:
    if not values:
        raise TooFewSamples("median of an empty sample")
    return statistics.median(values)


def p90(values: Sequence[float]) -> float:
    if len(values) < MIN_P90_SAMPLES:
        raise TooFewSamples(
            f"p90 needs at least {MIN_P90_SAMPLES} samples, "
            f"got {len(values)}")
    return quantile(values, 0.9)


def kind_gmean(values: Sequence[float], kinds: Sequence[Hashable]) -> float:
    """Geometric mean of each kind's median, weighted by its count.

    A workload of a few request kinds with very different costs has a
    median that sits in the gap between two kinds and jumps across it
    when their counts shift by one; this statistic moves only when a
    kind's own latency does."""
    if not values:
        raise TooFewSamples("geometric mean of an empty sample")
    by_kind: dict[Hashable, list[float]] = {}
    for value, kind in zip(values, kinds, strict=True):
        by_kind.setdefault(kind, []).append(value)
    return math.exp(sum(len(group) * math.log(statistics.median(group))
                        for group in by_kind.values()) / len(values))
