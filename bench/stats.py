"""Percentiles, spreads and bound checks for the benchmark's numbers."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

#: ``setup_s`` below ``SETUP_FLOOR_BELOW_S`` may move by this many seconds
#: whatever its relative bound says: a 40 ms set-up is all timer noise.
SETUP_FLOOR_S = 0.05
SETUP_FLOOR_BELOW_S = 0.2


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q`` quantile (0..1) by the nearest-rank rule."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples rank above the ``q`` quantile."""
    return count - max(1, math.ceil(q * count))


def supported(count: int, q: float) -> bool:
    """True when the ``q`` quantile of ``count`` samples may be reported:
    at least :data:`MIN_SAMPLES_BEYOND` samples lie beyond it."""
    return samples_beyond(count, q) >= MIN_SAMPLES_BEYOND


def highest_supported_percentile(count: int) -> Optional[int]:
    """The highest whole percentile ``count`` samples support, or None."""
    for pct in range(99, 0, -1):
        if supported(count, pct / 100):
            return pct
    return None


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the run-to-run spread the driver computes."""
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else float("inf")


def worsening(metric: dict, base: float, new: float) -> float:
    """By what share of ``base`` the metric got worse (negative: better)."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def within_bound(metric: dict, base: float, new: float) -> bool:
    """True when ``new`` is no worse than ``base`` by more than the
    metric's bound (``setup_s`` also gets its absolute floor)."""
    if worsening(metric, base, new) <= metric["bound"]:
        return True
    return (metric["name"] == "setup_s" and base < SETUP_FLOOR_BELOW_S
            and new - base <= SETUP_FLOOR_S)


def agree(metric: dict, first: float, second: float) -> bool:
    """Two sets of runs of the same code agree when neither reads worse
    than the other by more than the bound."""
    return (within_bound(metric, first, second)
            and within_bound(metric, second, first))


def no_failures(attempted: int, failed: int) -> bool:
    """``fail_ratio`` has zero tolerance: one failed operation fails."""
    if attempted < 1:
        raise ValueError("a run must attempt at least one operation")
    return failed == 0
