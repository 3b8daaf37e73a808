"""Shared order statistics used across the evaluation.

Medians, quantiles, and empirical CDFs are needed by the mobility
reductions (Figs. 6/7/9), the update-rate reports (Fig. 8), and the
fault-tolerance degradation metrics. They were historically hand-rolled
per module; this module is the single canonical implementation.

Every float reduction that reaches a reported result sums through
:func:`sequential_sum`, so a result is bit-identical on every Python
version the package supports.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

__all__ = ["sequential_sum", "mean", "median", "percentile", "cdf_points"]


def sequential_sum(values: Iterable[float]) -> float:
    """Left-to-right sum, ``0`` for no values.

    Builtin ``sum()`` compensates float rounding since Python 3.12, so
    its last bits differ between interpreters; this loop adds in plain
    order everywhere, as ``sum()`` did before 3.12.
    """
    total = 0
    for value in values:
        total += value
    return total


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on an empty sequence."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sequential_sum(values) / len(values)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile out of range: {q}")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the two middle values for even n)."""
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def cdf_points(values: Sequence[float]) -> List[Tuple[float, float]]:
    """Empirical CDF as ``(value, fraction <= value)`` step points."""
    ordered = sorted(values)
    n = len(ordered)
    return [(v, (i + 1) / n) for i, v in enumerate(ordered)]
