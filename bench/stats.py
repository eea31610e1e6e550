"""Sample statistics the benchmark reports: medians, tails and spreads."""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence

#: Tail percentiles tried from the top; the first with enough samples wins.
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0)
#: A percentile is only reported with at least this many samples beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> float:
    """The *pct*-th percentile of *samples*, linearly interpolated."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * pct / 100.0
    below = int(position)
    above = min(below + 1, len(ordered) - 1)
    fraction = position - below
    return ordered[below] + (ordered[above] - ordered[below]) * fraction


def supported_tail(count: int) -> Optional[float]:
    """The highest candidate percentile with ``MIN_BEYOND`` samples beyond it."""
    for pct in TAIL_CANDIDATES:
        if count * (100.0 - pct) / 100.0 >= MIN_BEYOND:
            return pct
    return None


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Count, median, and the highest tail the sample count supports.

    With too few samples for any tail candidate the tail falls back to
    the median (``tail_pct`` 50), so the keys are always present.
    """
    median = percentile(samples, 50.0)
    pct = supported_tail(len(samples))
    return {
        "count": len(samples),
        "p50": median,
        "tail_pct": pct if pct is not None else 50.0,
        "tail": percentile(samples, pct) if pct is not None else median,
    }


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """First quartile, median and third quartile of *values*."""
    if len(values) < 2:
        only = float(values[0])
        return {"q1": only, "median": only, "q3": only}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    cut = quartiles(values)
    return (cut["q3"] - cut["q1"]) / cut["median"] if cut["median"] else 0.0
