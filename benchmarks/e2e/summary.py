"""Order statistics for the end-to-end benchmark.

Every timing is reported as a median with its quartiles and sample
count, plus the highest tail percentile that still has ten or more
samples beyond it.  Quartiles are the ones ``statistics.quantiles(values,
n=4)`` gives, so a run's spread reads the same here as in any script
that re-derives it from the raw samples.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence, Tuple

#: Tail percentiles the picker chooses from, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own three quartiles."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def percentile(values: Sequence[float], p: float) -> Tuple[float, int]:
    """Nearest-rank ``p``-th percentile and how many samples lie beyond
    it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100 - 1e-9))
    return ordered[rank - 1], len(ordered) - rank


def pick_tail(values: Sequence[float]) -> Optional[Tuple[float, float]]:
    """``(p, value)`` for the highest percentile in :data:`TAIL_LADDER`
    with at least :data:`MIN_BEYOND` samples beyond it, or ``None`` when
    there are too few samples for any."""
    for p in TAIL_LADDER:
        value, beyond = percentile(values, p)
        if beyond >= MIN_BEYOND:
            return p, value
    return None


def tail_label(p: float) -> str:
    """``99.0`` -> ``"p99"``, ``99.9`` -> ``"p99.9"``."""
    return "p{:g}".format(p)


def describe(values: Sequence[float]) -> dict:
    """Median, quartiles, sample count and the picked tail of one
    sample set, as stored in a run report."""
    q1, median, q3 = quartiles(values)
    summary = {"median": median, "q1": q1, "q3": q3, "n": len(values)}
    tail = pick_tail(values)
    if tail is not None:
        summary["tail"] = {"p": tail[0], "value": tail[1]}
    return summary


def worse_by(base: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``base``, as a share of
    ``base`` (negative when it is better)."""
    if better == "lower":
        return (other - base) / abs(base)
    return (base - other) / abs(base)
