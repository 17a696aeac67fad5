"""Typed metrics — counters, gauges, histograms — and the unified snapshot.

:data:`METRICS` is the process's one telemetry registry.  Every layer
declares its instruments once, at import, beside the code that records
into them, and calls ``inc`` / ``set`` / ``observe`` on them directly:
synthesis-cache and C-artifact cache counters, IR memo lookups by operation and
outcome, synthesis-phase and optimization-pass durations (histograms of
seconds), backend selection and fallback, validation-gate activity,
fuzzer outcomes, conversion latency.  Where a name would carry data
(an operation, a phase, a pass) it is a label instead.

:func:`unified_snapshot` adds IR memo table sizes, the synthesis memo's
size and the span summary to the typed instruments: the single
JSON-compatible document behind ``repro stats``, the Prometheus exporter
and the ``REPRO_CACHE_STATS_FILE`` dump.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from itertools import accumulate
from typing import Mapping, Optional, Sequence

#: Default histogram bucket upper bounds, in seconds (latency-shaped).
DEFAULT_BUCKETS = (
    1e-5,
    1e-4,
    1e-3,
    1e-2,
    1e-1,
    1.0,
    10.0,
)


def _label_key(labels: Mapping[str, object]) -> tuple:
    if not labels:  # the unlabelled hot path skips the sort
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Metric:
    """Base: a named instrument holding per-label-set series."""

    kind = "untyped"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._series: dict[tuple, object] = {}

    def _samples(self) -> list[dict]:
        with self._lock:
            items = list(self._series.items())
        return [
            {"labels": dict(key), "value": value} for key, value in items
        ]

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "help": self.help,
            "samples": self._samples(),
        }

    def reset(self) -> None:
        with self._lock:
            self._series.clear()


class Counter(Metric):
    """A monotonically increasing count, optionally labelled."""

    kind = "counter"

    def inc(self, n: float = 1, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0) + n

    def value(self, **labels) -> float:
        return self._series.get(_label_key(labels), 0)


class Gauge(Metric):
    """A point-in-time value (set, not accumulated)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._series[_label_key(labels)] = value

    def value(self, **labels) -> Optional[float]:
        return self._series.get(_label_key(labels))


class Histogram(Metric):
    """Cumulative-bucket histogram (Prometheus semantics) plus min/max.

    ``observe(..., exemplar=trace_id)`` attaches an OpenMetrics-style
    exemplar to the smallest bucket containing the observation (and the
    implicit ``+Inf`` bucket when it overflows every bound): the last
    trace id seen per bucket, with its value and unix timestamp.  The
    Prometheus exposition renders these as ``# {trace_id="..."} v ts``
    suffixes, linking latency buckets back to ``/debug/trace/<id>``.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help)
        self.buckets = tuple(sorted(buckets))

    def observe(self, value: float, exemplar: str | None = None, **labels) -> None:
        key = _label_key(labels)
        # The smallest bound >= value; len(buckets) is the +Inf bucket.
        slot = bisect_left(self.buckets, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = {
                    "count": 0,
                    "sum": 0.0,
                    "min": value,
                    "max": value,
                    # Per-bucket (not cumulative) counts and exemplars: one
                    # slot per bound plus the implicit +Inf bucket.
                    "buckets": [0] * (len(self.buckets) + 1),
                    "exemplars": [None] * (len(self.buckets) + 1),
                }
            series["count"] += 1
            series["sum"] += value
            series["min"] = min(series["min"], value)
            series["max"] = max(series["max"], value)
            series["buckets"][slot] += 1
            if exemplar:
                series["exemplars"][slot] = {
                    "trace_id": str(exemplar),
                    "value": value,
                    "ts": time.time(),
                }

    def merge(self, series: dict, **labels) -> None:
        """Fold in observations another process made: ``series`` holds
        their count, sum and per-bucket counts, and the min and max of
        that process's series (see :meth:`MetricsRegistry.added_since`)."""
        key = _label_key(labels)
        with self._lock:
            own = self._series.get(key)
            if own is None:
                self._series[key] = dict(
                    series,
                    buckets=list(series["buckets"]),
                    exemplars=[None] * (len(self.buckets) + 1),
                )
                return
            own["count"] += series["count"]
            own["sum"] += series["sum"]
            own["min"] = min(own["min"], series["min"])
            own["max"] = max(own["max"], series["max"])
            own["buckets"] = [
                a + b for a, b in zip(own["buckets"], series["buckets"])
            ]

    def _samples(self) -> list[dict]:
        """Series with ``buckets`` cumulative per bound (Prometheus ``le``)."""
        with self._lock:
            items = [
                (
                    key,
                    dict(
                        value,
                        buckets=list(accumulate(value["buckets"][:-1])),
                        exemplars=list(value["exemplars"]),
                    ),
                )
                for key, value in self._series.items()
            ]
        return [
            {"labels": dict(key), "value": value} for key, value in items
        ]

    def snapshot(self) -> dict:
        snap = super().snapshot()
        snap["bucket_bounds"] = list(self.buckets)
        return snap


class MetricsRegistry:
    """Get-or-create registry of typed instruments."""

    def __init__(self):
        self._lock = threading.Lock()
        self._metrics: dict[str, Metric] = {}

    def _get(self, cls, name: str, help: str, **kwargs) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, help, **kwargs)
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(  # type: ignore[return-value]
            Histogram, name, help, buckets=buckets
        )

    def snapshot(self) -> dict:
        with self._lock:
            metrics = list(self._metrics.values())
        return {metric.name: metric.snapshot() for metric in metrics}

    def counts(self) -> dict[tuple[str, tuple], object]:
        """Every counter and histogram series, as ``{(name, label key):
        value}``: a counter's count, a copy of a histogram's series."""
        with self._lock:
            metrics = list(self._metrics.values())
        out = {}
        for metric in metrics:
            if isinstance(metric, (Counter, Histogram)):
                with metric._lock:
                    for key, value in metric._series.items():
                        if isinstance(value, dict):
                            value = dict(value, buckets=list(value["buckets"]))
                        out[metric.name, key] = value
        return out

    def added_since(self, before: Mapping) -> dict[tuple[str, tuple], object]:
        """What the series of :meth:`counts` gained since it returned
        ``before``: a counter's increase, a histogram's new count, sum
        and per-bucket counts (with its whole min and max).  A pool
        worker returns this for :meth:`add_counts` in its parent."""
        added = {}
        for key, value in self.counts().items():
            prev = before.get(key)
            if not isinstance(value, dict):
                if value != (prev or 0):
                    added[key] = value - (prev or 0)
                continue
            if prev is not None:
                value = dict(
                    value,
                    count=value["count"] - prev["count"],
                    sum=value["sum"] - prev["sum"],
                    buckets=[
                        a - b for a, b in zip(value["buckets"], prev["buckets"])
                    ],
                )
            if value["count"]:
                added[key] = value
        return added

    def add_counts(self, counts: Mapping[tuple[str, tuple], object]) -> None:
        """Add what another process recorded (a pool worker's
        :meth:`added_since`) to this process's counters and histograms."""
        for (name, key), value in counts.items():
            if isinstance(value, dict):
                self.histogram(name).merge(value, **dict(key))
            else:
                self.counter(name).inc(value, **dict(key))

    def reset(self) -> None:
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            metric.reset()


#: The process-wide registry all layers record typed metrics into.
METRICS = MetricsRegistry()


# ----------------------------------------------------------------------
# The unified snapshot: one document for repro stats / exporters / CI.
# ----------------------------------------------------------------------
def unified_snapshot(*, include_cache: bool = True) -> dict:
    """Everything observable about the process, as one JSON document.

    Sections: ``metrics`` (every typed instrument), ``ir_memo_tables``
    (entries per memo table), ``spans`` (per-name aggregate over
    recorded trace trees), and — unless ``include_cache=False`` —
    ``cache`` (the synthesis memo's
    :func:`~repro.synthesis.cache.cache_stats`, whose counters read the
    same typed cache counters as the ``metrics`` section).
    """
    # Imported lazily: obs imports nothing from repro at module level,
    # since the IR and the synthesis cache themselves record into it.
    from repro.ir import memo

    from .core import TRACER

    snapshot = {
        "metrics": METRICS.snapshot(),
        "spans": TRACER.span_summary(),
        "ir_memo_tables": memo.stats(),
    }
    if include_cache:
        from repro.synthesis.cache import cache_stats

        snapshot["cache"] = cache_stats()
    return snapshot


def reset_all() -> None:
    """Zero every telemetry source (between benchmark repetitions)."""
    from .core import TRACER

    METRICS.reset()
    TRACER.clear()
