"""Percentiles that refuse thin tails, and the steadiness summary."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence, Tuple

#: A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too thin to support it."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (0 < q < 100).

    Raises:
        TooFewSamples: when fewer than :data:`MIN_BEYOND` samples lie
            beyond the percentile (e.g. a p95 from fewer than 200, or a
            p50 from fewer than 20 samples).
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q!r}")
    count = len(values)
    rank = math.ceil(q / 100.0 * count)
    beyond = count - rank
    if rank < 1 or beyond < MIN_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {count} samples has {beyond} beyond it; "
            f"need {MIN_BEYOND}")
    return sorted(values)[rank - 1]


def split_by_kind(records: Iterable[Tuple[str, float]]
                  ) -> Dict[str, List[float]]:
    """Group ``(kind, value)`` pairs into one sample list per kind."""
    split: Dict[str, List[float]] = {}
    for kind, value in records:
        split.setdefault(kind, []).append(value)
    return split


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and the inter-quartile range over the median.

    The quartiles are :func:`statistics.quantiles` with ``n=4``, the
    definition the acceptance check uses.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    relative = (q3 - q1) / abs(median) if median else math.inf
    return {"median": median, "q1": q1, "q3": q3, "spread": relative}
