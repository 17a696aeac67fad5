"""repro.obs — structured tracing and metrics for the synthesis pipeline.

The observability layer behind ``repro trace`` and ``repro stats``:

* **spans** (:mod:`.core`) — hierarchical, thread-attributed trace trees
  over synthesis phases and runtime execution,
* **metrics** (:mod:`.metrics`) — the one registry of typed
  counters/gauges/histograms every layer records into, plus the
  :func:`unified_snapshot` document over it,
* **exporters** (:mod:`.export`) — JSONL events, Chrome trace-event JSON
  (Perfetto-loadable), Prometheus text exposition (all atomic), and the
  human-readable table behind ``repro stats`` and ``--profile``,
* **per-statement spans** — under deep tracing the python and numpy
  tiers run a timed variant printed from the conversion's lowered
  program (:meth:`repro.backends.Backend.timed_source`), which reports
  each top-level node as an ``execute.stmt`` span; the C tier runs
  untimed.

Environment knobs:

* ``REPRO_TRACE=1`` — enable tracing process-wide,
* ``REPRO_TRACE_DIR=path`` — write ``trace.json`` / ``events.jsonl`` /
  ``metrics.prom`` / ``stats.json`` there at process exit.

The whole subsystem is dependency-free and — when disabled — reduces to
one flag check per span site (<1% of conversion cost, pinned by test).
"""

from __future__ import annotations

import atexit
import os

from .core import (
    NOOP_SPAN,
    Span,
    TRACER,
    TraceContext,
    add_span,
    adopt,
    capture,
    new_trace_id,
    span,
    tracing,
    valid_trace_id,
)
from .flight import FlightRecorder, RequestRecord
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    METRICS,
    MetricsRegistry,
    reset_all,
    unified_snapshot,
)
from .export import (
    atomic_write_text,
    chrome_trace,
    jsonl_events,
    PROMETHEUS_CONTENT_TYPE,
    parse_prometheus_exemplars,
    parse_prometheus_text,
    prometheus_text,
    span_tree,
    table_text,
    validate_chrome_trace,
    write_all,
    write_chrome_trace,
    write_jsonl,
    write_prometheus,
)

__all__ = [
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "METRICS",
    "MetricsRegistry",
    "NOOP_SPAN",
    "RequestRecord",
    "Span",
    "TRACER",
    "TraceContext",
    "add_span",
    "adopt",
    "atomic_write_text",
    "capture",
    "chrome_trace",
    "counter",
    "gauge",
    "histogram",
    "jsonl_events",
    "new_trace_id",
    "PROMETHEUS_CONTENT_TYPE",
    "parse_prometheus_exemplars",
    "parse_prometheus_text",
    "prometheus_text",
    "reset_all",
    "span",
    "span_tree",
    "table_text",
    "trace_dir",
    "tracing",
    "unified_snapshot",
    "valid_trace_id",
    "validate_chrome_trace",
    "write_all",
    "write_chrome_trace",
    "write_jsonl",
    "write_prometheus",
]

#: Shorthand instrument factories on the process registry.
counter = METRICS.counter
gauge = METRICS.gauge
histogram = METRICS.histogram


def trace_dir() -> str | None:
    """The configured trace artifact directory, if any."""
    return os.environ.get("REPRO_TRACE_DIR") or None


# When tracing is enabled *and* a directory is configured, dump the trace
# artifacts at exit — any entry point (CLI, eval harness, pytest, fuzz)
# becomes traceable without code changes.
if TRACER.enabled and trace_dir():  # pragma: no cover - exit-hook path

    @atexit.register
    def _dump_artifacts(directory=trace_dir()):
        try:
            write_all(directory)
        except OSError:
            pass
