"""The summary statistics the benchmark reports and compares with."""

from __future__ import annotations

import math
import statistics
from typing import Sequence


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values (the per-cell aggregate)."""
    if not values or min(values) <= 0:
        raise ValueError("geomean needs at least one positive value")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``q``% at or below.

    Nearest rank reports a value that was actually measured, so a
    percentile never interpolates between two size classes.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def residue_share(e2e_total: float, layer_total: float) -> float:
    """|end-to-end - sum of layers| as a share of end-to-end."""
    return abs(e2e_total - layer_total) / e2e_total
