"""Timing utilities for the evaluation harness."""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence


@dataclass(frozen=True)
class TimingStats:
    """Per-measurement summary from :func:`time_fn_stats` (seconds)."""

    min: float
    median: float
    mean: float
    repeats: int
    samples: tuple[float, ...]


def time_fn_stats(
    fn: Callable, *args, repeats: int = 3, warmup: int = 1, **kwargs
) -> TimingStats:
    """Time ``fn(*args, **kwargs)`` and summarize the sample distribution.

    Runs ``warmup`` unmeasured calls first (letting compile caches, memo
    tables and branch-predictor state settle — the first call of a cached
    inspector is dominated by one-time work), then ``repeats`` measured
    calls on :func:`time.perf_counter`.  ``min`` is the steady-state
    estimate (least noise-contaminated); ``median`` is the robust central
    tendency benchmarks should report alongside it.
    """
    for _ in range(max(0, warmup)):
        fn(*args, **kwargs)
    samples = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn(*args, **kwargs)
        samples.append(time.perf_counter() - start)
    return TimingStats(
        min=min(samples),
        median=statistics.median(samples),
        mean=math.fsum(samples) / len(samples),
        repeats=len(samples),
        samples=tuple(samples),
    )


def time_fn(
    fn: Callable, *args, repeats: int = 3, warmup: int = 1, **kwargs
) -> float:
    """Best-of-``repeats`` wall time of ``fn(*args, **kwargs)`` in seconds.

    A thin wrapper over :func:`time_fn_stats` that keeps the historical
    float return; one warm-up call runs before measurement (pass
    ``warmup=0`` to time cold effects like cache population).
    """
    return time_fn_stats(
        fn, *args, repeats=repeats, warmup=warmup, **kwargs
    ).min


def time_pair(
    fn_a: Callable, fn_b: Callable, *, repeats: int = 3, warmup: int = 1
) -> tuple[float, float]:
    """Best-of-``repeats`` wall times of two functions, measured in turns.

    Each repeat times one call of ``fn_a`` and then one of ``fn_b``, so a
    change in host speed during the measurement affects both alike; two
    back-to-back :func:`time_fn` calls would charge a drift to whichever
    side ran second.  Use it when the two times are compared.
    """
    for _ in range(max(0, warmup)):
        fn_a()
        fn_b()
    best_a = best_b = math.inf
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn_a()
        middle = time.perf_counter()
        fn_b()
        end = time.perf_counter()
        best_a = min(best_a, middle - start)
        best_b = min(best_b, end - middle)
    return best_a, best_b


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's aggregate for all speedup claims)."""
    values = [v for v in values if v > 0]
    if not values:
        return float("nan")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def speedup_table(
    ours: Sequence[float], baselines: dict[str, Sequence[float]]
) -> dict[str, float]:
    """Geomean speedup of ours vs each baseline (>1 means ours is faster)."""
    out = {}
    for name, times in baselines.items():
        ratios = [b / o for o, b in zip(ours, times) if o > 0 and b > 0]
        out[name] = geomean(ratios)
    return out
