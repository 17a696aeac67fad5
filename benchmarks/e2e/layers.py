"""The traced run: convert()'s layers timed from outside, plus own spans.

:func:`mirror` repeats, call for call, the public functions ``convert()``
makes, in its order, timing each one.  Nothing under ``src/`` is patched;
each layer is one public call, so a later change that moves work between
layers shows up here without editing the benchmark.

The benchmark keeps its own spans (name, start, end, parent, cell id) in
memory and writes them once at exit as Chrome trace-event JSON.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager

#: Layer name -> the metric its per-sweep total is reported under, in the
#: order convert() calls them.  Their sum is compared with convert()'s
#: wall time (the residue).
LAYERS = (
    ("resolve", "backends.resolve_ms"),
    ("gate_input", "verify.gate_input_ms"),
    ("detect", "formats.detect_ms"),
    ("lookup", "synthesis.lookup_ms"),
    ("bind", "formats.bind_ms"),
    ("execute", "backends.execute_ms"),
    ("materialize", "backends.materialize_ms"),
    ("pack", "formats.pack_ms"),
    ("gate_output", "verify.gate_output_ms"),
)

#: Timed after :func:`mirror`, outside the sum: an estimate of the
#: marshal-in share of ``execute`` (``Backend.native_inputs``).
MARSHAL_IN = "backends.marshal_in_ms"


class SpanRecorder:
    """In-memory spans: (name, start, end, parent index, cell id, scale).

    ``scale`` is the host-speed factor (:mod:`speed`) in effect when the
    span opened; :meth:`durations` applies it, the Chrome trace does not.
    """

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[tuple[str, float, float, int, str, float]] = []
        self._stack: list[int] = []
        self.scale = 1.0

    @contextmanager
    def span(self, name: str, cell: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        scale = self.scale
        self.spans.append((name, 0.0, 0.0, parent, cell, scale))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, cell, scale)

    def durations(self, names) -> dict[str, dict[str, list[float]]]:
        """``{span name: {cell id: [scaled seconds, ...]}}`` for ``names``."""
        out: dict[str, dict[str, list[float]]] = {n: {} for n in names}
        for name, start, end, _parent, cell, scale in self.spans:
            if name in out:
                out[name].setdefault(cell, []).append((end - start) * scale)
        return out

    def chrome_trace(self) -> dict:
        pid = os.getpid()
        tid = threading.get_ident() & 0x7FFFFFFF
        events = [
            {
                "name": name,
                "cat": "e2e",
                "ph": "X",
                "ts": round((start - self.t0) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": {
                    "cell": cell,
                    "parent": self.spans[parent][0] if parent >= 0 else "",
                },
            }
            for name, start, end, parent, cell, _scale in self.spans
        ]
        meta = {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": "e2e-benchmark"},
        }
        return {"traceEvents": [meta] + events, "displayTimeUnit": "ms"}

    def write(self, path: str) -> list[str]:
        """Write the Chrome trace; returns the library validator's problems."""
        from repro.obs.export import validate_chrome_trace

        trace = self.chrome_trace()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(trace, fh)
        return validate_chrome_trace(trace)


def span_cost(n: int = 2000) -> float:
    """Seconds one span costs a recorder, measured over ``n`` empty spans."""
    probe = SpanRecorder()
    start = time.perf_counter()
    for _ in range(n):
        with probe.span("probe", ""):
            pass
    return (time.perf_counter() - start) / n


def mirror(cell, rec: SpanRecorder):
    """convert(cell.source, cell.dst, ...) as its sequence of public calls.

    Returns the result and the inspector inputs.  ``run_native`` gets the
    environment's own list values — not staged arrays — because that is
    what convert() passes it; staging changes what scalar-fallback
    inspectors cost.
    """
    from repro import container_to_env, get_conversion, outputs_to_container
    from repro import container_format
    from repro.backends import available_backend
    from repro.verify import gate

    cid = cell.id
    with rec.span("resolve", cid):
        backend = available_backend(cell.backend)
    with rec.span("gate_input", cid):
        gate.check_input(
            cell.source, level="inputs", assume_sorted=cell.assume_sorted
        )
    with rec.span("detect", cid):
        src = container_format(cell.source, assume_sorted=cell.assume_sorted)
    with rec.span("lookup", cid):
        conversion = get_conversion(src, cell.dst, backend=backend.name)
    with rec.span("bind", cid):
        env = container_to_env(cell.source)
        inputs = {p: env[p] for p in conversion.params}
    with rec.span("execute", cid):
        native = conversion.run_native(**inputs)
    with rec.span("materialize", cid):
        outputs = backend.materialize(native)
    with rec.span("pack", cid):
        result = outputs_to_container(
            cell.dst, outputs, conversion.uf_output_map, env
        )
    with rec.span("gate_output", cid):
        gate.check_output(result, cell.source, level="inputs")
    return result, inputs
