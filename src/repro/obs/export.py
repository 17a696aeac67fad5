"""Exporters: JSONL event log, Chrome trace-event JSON, Prometheus text.

All writers are atomic (tempfile + ``os.replace``), so a trace directory
being populated while another process reads it never shows a torn file.
The Chrome trace output loads directly in Perfetto / ``chrome://tracing``;
the Prometheus output follows the text exposition format and round-trips
through :func:`parse_prometheus_text` (used by the CI ``trace-smoke`` job
to validate artifacts programmatically).
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from pathlib import Path
from typing import Iterable, Iterator, Optional

from .core import T0, Span, TRACER
from .metrics import unified_snapshot


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically (tempfile + rename)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ----------------------------------------------------------------------
# JSONL event log
# ----------------------------------------------------------------------
def jsonl_events(spans: Optional[Iterable[Span]] = None) -> Iterator[dict]:
    """One flat JSON-compatible record per span, parents before children."""
    roots = TRACER.finished_roots() if spans is None else list(spans)
    for root in roots:
        stack = [(root, 0)]
        while stack:
            span, parent_id = stack.pop()
            yield {
                "name": span.name,
                "cat": span.category,
                "id": span.span_id,
                "parent": parent_id,
                "tid": span.tid,
                "start_us": round((span.start - T0) * 1e6, 3),
                "dur_us": round(span.duration * 1e6, 3),
                "attrs": span.attrs,
            }
            for child in reversed(span.children):
                stack.append((child, span.span_id))


def write_jsonl(path: str | Path, spans: Optional[Iterable[Span]] = None) -> None:
    lines = [json.dumps(event) for event in jsonl_events(spans)]
    atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


# ----------------------------------------------------------------------
# Chrome trace-event format (Perfetto / chrome://tracing)
# ----------------------------------------------------------------------
def chrome_trace(spans: Optional[Iterable[Span]] = None) -> dict:
    """The trace as a Chrome trace-event JSON object.

    Complete (``ph:"X"``) events for every span, preceded by
    ``thread_name`` metadata (``ph:"M"``) events so Perfetto renders the
    worker pool by name (``repro-serve-N``) instead of raw thread ids.
    """
    pid = os.getpid()
    events = []
    roots = TRACER.finished_roots() if spans is None else list(spans)
    tids: set[int] = set()
    for root in roots:
        for span in root.walk():
            tids.add(span.tid)
            events.append(
                {
                    "name": span.name,
                    "cat": span.category or "repro",
                    "ph": "X",
                    "ts": round((span.start - T0) * 1e6, 3),
                    "dur": round(span.duration * 1e6, 3),
                    "pid": pid,
                    "tid": span.tid,
                    "args": span.attrs,
                }
            )
    names = TRACER.thread_names()
    metadata = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": names[tid]},
        }
        for tid in sorted(tids)
        if tid in names
    ]
    return {
        "traceEvents": metadata + events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs"},
    }


def write_chrome_trace(
    path: str | Path, spans: Optional[Iterable[Span]] = None
) -> None:
    atomic_write_text(path, json.dumps(chrome_trace(spans), indent=1))


def span_tree(span: Span) -> dict:
    """One span tree as a nested JSON-compatible document.

    The shape behind ``GET /debug/trace/<id>``: name, category, ids,
    thread attribution (id *and* name, so a remote reader needs no
    access to this process), microsecond offsets, attrs, and recursively
    the children.
    """
    names = TRACER.thread_names()

    def node(s: Span) -> dict:
        return {
            "name": s.name,
            "category": s.category,
            "span_id": s.span_id,
            "trace_id": s.trace_id,
            "tid": s.tid,
            "thread": names.get(s.tid, ""),
            "start_us": round((s.start - T0) * 1e6, 3),
            "dur_us": round(s.duration * 1e6, 3),
            "attrs": s.attrs,
            "children": [node(c) for c in s.children],
        }

    return node(span)


def validate_chrome_trace(obj: dict) -> list[str]:
    """Schema-check a Chrome trace object; returns a list of problems.

    Checks the subset of the trace-event format that Perfetto requires:
    the ``traceEvents`` array, complete (``"ph": "X"``) events with
    name/timestamp/duration/pid/tid fields of JSON-compatible types, and
    metadata (``"ph": "M"``) events — thread/process naming — with a
    string ``args.name``.
    """
    problems: list[str] = []
    if not isinstance(obj, dict):
        return [f"trace must be a JSON object, got {type(obj).__name__}"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(event.get("name"), str) or not event.get("name"):
            problems.append(f"{where}: missing or empty name")
        phase = event.get("ph")
        if phase not in ("X", "M"):
            problems.append(
                f"{where}: expected complete (ph='X') or metadata "
                f"(ph='M') event"
            )
        if phase == "X":
            for field in ("ts", "dur"):
                value = event.get(field)
                if not isinstance(value, (int, float)) or value < 0:
                    problems.append(
                        f"{where}: {field} must be a number >= 0"
                    )
        for field in ("pid", "tid"):
            if not isinstance(event.get(field), int):
                problems.append(f"{where}: {field} must be an integer")
        args = event.get("args", {})
        if not isinstance(args, dict):
            problems.append(f"{where}: args must be an object")
        if phase == "M" and not isinstance(args.get("name"), str):
            problems.append(f"{where}: metadata args.name must be a string")
    return problems


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
#: The Content-Type a live scrape endpoint must declare for the text
#: exposition format (`repro serve`'s GET /metrics serves this).
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    sanitized = _NAME_RE.sub("_", name)
    if not sanitized or not (sanitized[0].isalpha() or sanitized[0] in "_:"):
        sanitized = "_" + sanitized
    return sanitized


def _escape_label_value(value: object) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _prom_labels(labels: dict) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{_prom_name(k)}="{_escape_label_value(v)}"'
        for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


def _fmt(value: float) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _exemplar_suffix(exemplar: Optional[dict]) -> str:
    """The OpenMetrics exemplar tail for one histogram bucket line.

    ``# {trace_id="abc"} 0.0042 1700000000.0`` — linking the bucket to
    the trace that last landed in it.  Empty when no exemplar was
    recorded.
    """
    if not exemplar:
        return ""
    return (
        f' # {{trace_id="{_escape_label_value(exemplar["trace_id"])}"}}'
        f' {_fmt(float(exemplar["value"]))} {_fmt(float(exemplar["ts"]))}'
    )


def prometheus_text(snapshot: Optional[dict] = None) -> str:
    """The unified snapshot in Prometheus text exposition format.

    Typed instruments keep their registered names (histograms get the
    standard ``_bucket`` / ``_sum`` / ``_count`` series); memo table
    sizes and span aggregates are rendered as labelled series.
    """
    snap = snapshot if snapshot is not None else unified_snapshot()
    lines: list[str] = []

    for name in sorted(snap.get("metrics", {})):
        metric = snap["metrics"][name]
        if not metric["samples"]:  # declared at import, never recorded
            continue
        prom = _prom_name(name)
        kind = metric["kind"]
        if metric.get("help"):
            lines.append(f"# HELP {prom} {metric['help']}")
        if kind in ("counter", "gauge"):
            lines.append(f"# TYPE {prom} {kind}")
            for sample in metric["samples"]:
                lines.append(
                    f"{prom}{_prom_labels(sample['labels'])} "
                    f"{_fmt(sample['value'])}"
                )
        elif kind == "histogram":
            lines.append(f"# TYPE {prom} histogram")
            bounds = metric.get("bucket_bounds", [])
            for sample in metric["samples"]:
                labels = sample["labels"]
                value = sample["value"]
                exemplars = value.get("exemplars") or [None] * (
                    len(bounds) + 1
                )
                for index, (bound, count) in enumerate(
                    zip(bounds, value["buckets"])
                ):
                    bucket_labels = dict(labels, le=repr(float(bound)))
                    lines.append(
                        f"{prom}_bucket{_prom_labels(bucket_labels)} "
                        f"{count}"
                        + _exemplar_suffix(exemplars[index])
                    )
                inf_labels = dict(labels, le="+Inf")
                lines.append(
                    f"{prom}_bucket{_prom_labels(inf_labels)} "
                    f"{value['count']}"
                    + _exemplar_suffix(
                        exemplars[len(bounds)]
                        if len(exemplars) > len(bounds)
                        else None
                    )
                )
                lines.append(
                    f"{prom}_sum{_prom_labels(labels)} {_fmt(value['sum'])}"
                )
                lines.append(
                    f"{prom}_count{_prom_labels(labels)} {value['count']}"
                )

    tables = snap.get("ir_memo_tables", {})
    if tables:
        lines.append("# TYPE repro_ir_memo_table_entries gauge")
        for name in sorted(tables):
            lines.append(
                f'repro_ir_memo_table_entries{{table="{_prom_name(name)}"}} '
                f"{tables[name]}"
            )

    spans = snap.get("spans", {})
    if spans:
        lines.append("# TYPE repro_span_seconds_total counter")
        lines.append("# TYPE repro_span_count_total counter")
        for name in sorted(spans):
            label = _prom_labels({"span": name})
            lines.append(
                f"repro_span_seconds_total{label} "
                f"{_fmt(spans[name]['seconds'])}"
            )
            lines.append(
                f"repro_span_count_total{label} {spans[name]['count']}"
            )
    return "\n".join(lines) + "\n"


def write_prometheus(
    path: str | Path, snapshot: Optional[dict] = None
) -> None:
    atomic_write_text(path, prometheus_text(snapshot))


# ----------------------------------------------------------------------
# Human-readable table (`repro stats`, `repro --profile`)
# ----------------------------------------------------------------------
def table_text(snapshot: Optional[dict] = None) -> str:
    """The unified snapshot as a human-readable report.

    What ``repro stats --format table`` prints and ``repro --profile``
    writes to stderr: one line per typed-metric series (histograms as
    count / sum / min / max — seconds for the ``*_seconds`` timers,
    e.g. per synthesis phase and per pass), the span aggregates, and the
    synthesis memo's size and counters.
    """
    snap = snapshot if snapshot is not None else unified_snapshot()
    lines = ["== telemetry =="]

    metric_lines = []
    metrics = snap.get("metrics") or {}
    for name in sorted(metrics):
        metric = metrics[name]
        for sample in metric["samples"]:
            value = sample["value"]
            if metric["kind"] == "histogram":
                value = (
                    f"count={value['count']} sum={value['sum']:.6g} "
                    f"min={value['min']:.6g} max={value['max']:.6g}"
                )
            metric_lines.append(
                f"{name}{_prom_labels(sample['labels'])}: {value}"
            )
    if metric_lines:
        lines.append("-- metrics --")
        lines.extend(metric_lines)

    spans = snap.get("spans") or {}
    if spans:
        lines.append("-- span aggregates --")
        for name in sorted(spans):
            entry = spans[name]
            lines.append(
                f"{name:26s}{entry['seconds'] * 1e3:10.2f} ms"
                f"{entry['count']:8d} spans"
            )

    cache = snap.get("cache")
    if cache:
        lines.append("-- inspector cache --")
        lines.append(f"memo entries:  {cache['memo_entries']}")
        for name in sorted(cache["counters"]):
            lines.append(f"{name}: {cache['counters'][name]}")

    if len(lines) == 1:
        lines.append("(nothing recorded)")
    return "\n".join(lines)


_NUMBER = r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|Inf|NaN)"
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    rf"\s+(?P<value>{_NUMBER})"
    r"(?:\s+#\s+\{(?P<exlabels>[^}]*)\}"
    rf"\s+(?P<exvalue>{_NUMBER})(?:\s+(?P<exts>{_NUMBER}))?)?"
    r"\s*$"
)
_LABEL_RE = re.compile(
    r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"'
)


def _parse_samples(text: str):
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(
                f"line {lineno} is not a valid Prometheus sample: {line!r}"
            )
        yield match


def parse_prometheus_text(text: str) -> dict:
    """Parse text exposition into ``{(name, labels...): value}``.

    A strict-enough validator for tests and CI: every non-comment line
    must match the sample grammar or a ``ValueError`` is raised.
    OpenMetrics exemplar suffixes (``# {trace_id="..."} v ts``) are
    accepted and ignored here; :func:`parse_prometheus_exemplars`
    extracts them.
    """
    samples: dict = {}
    for match in _parse_samples(text):
        labels = tuple(
            sorted(_LABEL_RE.findall(match.group("labels") or ""))
        )
        samples[(match.group("name"), labels)] = float(match.group("value"))
    return samples


def parse_prometheus_exemplars(text: str) -> dict:
    """The exemplars of an exposition: ``{(name, labels...): exemplar}``.

    Each exemplar is ``{"labels": {...}, "value": float, "ts": float |
    None}`` — for the serve histograms the exemplar labels carry the
    ``trace_id`` a ``/debug/trace/<id>`` lookup takes.
    """
    exemplars: dict = {}
    for match in _parse_samples(text):
        if match.group("exlabels") is None:
            continue
        labels = tuple(
            sorted(_LABEL_RE.findall(match.group("labels") or ""))
        )
        ts = match.group("exts")
        exemplars[(match.group("name"), labels)] = {
            "labels": dict(_LABEL_RE.findall(match.group("exlabels"))),
            "value": float(match.group("exvalue")),
            "ts": float(ts) if ts is not None else None,
        }
    return exemplars


# ----------------------------------------------------------------------
# One-call artifact dump (the REPRO_TRACE_DIR exit hook and `repro trace`)
# ----------------------------------------------------------------------
def write_all(directory: str | Path) -> dict:
    """Write trace.json / events.jsonl / metrics.prom / stats.json.

    Returns the mapping of artifact kind to path.
    """
    directory = Path(directory)
    snapshot = unified_snapshot()
    paths = {
        "chrome_trace": directory / "trace.json",
        "events": directory / "events.jsonl",
        "prometheus": directory / "metrics.prom",
        "stats": directory / "stats.json",
    }
    write_chrome_trace(paths["chrome_trace"])
    write_jsonl(paths["events"])
    write_prometheus(paths["prometheus"], snapshot)
    atomic_write_text(
        paths["stats"], json.dumps(snapshot, indent=2, sort_keys=True)
    )
    return {kind: str(path) for kind, path in paths.items()}
