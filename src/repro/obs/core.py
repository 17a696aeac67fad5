"""Hierarchical spans: the tracing core of :mod:`repro.obs`.

A *span* is a named, timed region of work with free-form attributes and
child spans; the tree rooted at an outermost span is a per-conversion
trace covering synthesis phases (parse, case selection, composition,
optimization, lowering) and runtime execution (per-statement loop-nest
timing).  Spans nest through a thread-local stack, so concurrent
conversions on different threads produce independent, correctly
attributed trees.

Tracing is off by default and enabled by ``REPRO_TRACE=1`` (or
programmatically via :meth:`Tracer.enable` / the :meth:`Tracer.forced`
override).  The disabled path is a single flag check returning a shared
no-op span — cheap enough to leave :func:`span` calls on every hot
boundary (asserted <1% of conversion cost by
``tests/obs/test_overhead.py``).

This module deliberately imports nothing from the rest of the package
(only the stdlib), so any layer — :mod:`repro.ir`, the synthesis engine,
the executor — can use it without import cycles.
"""

from __future__ import annotations

import os
import re
import threading
import time
import uuid
from typing import Iterator, Optional

#: perf_counter origin all span timestamps are relative to; exporters use
#: it to produce small non-negative microsecond offsets.
T0 = time.perf_counter()


def _env_enabled() -> bool:
    return os.environ.get("REPRO_TRACE", "") not in ("", "0", "false", "off")


#: Shape of an acceptable trace id — client-supplied ids outside this are
#: rejected (serve) or ignored (headers) rather than echoed verbatim.
TRACE_ID_RE = re.compile(r"^[A-Za-z0-9_.\-]{1,64}$")


def new_trace_id() -> str:
    """A fresh 16-hex trace id (random, process-independent)."""
    return uuid.uuid4().hex[:16]


def valid_trace_id(value) -> bool:
    """Is ``value`` an acceptable (client-supplied) trace id?"""
    return isinstance(value, str) and bool(TRACE_ID_RE.match(value))


class Span:
    """One timed, attributed region; a node in a trace tree."""

    __slots__ = (
        "name",
        "category",
        "start",
        "end",
        "attrs",
        "children",
        "span_id",
        "tid",
        "trace_id",
    )

    def __init__(self, name: str, category: str = "", attrs: dict | None = None):
        self.name = name
        self.category = category
        self.attrs: dict = attrs or {}
        self.children: list[Span] = []
        self.start: float = 0.0
        self.end: float = 0.0
        self.span_id: int = 0
        self.tid: int = 0
        self.trace_id: str = ""

    # -- attribute helpers -------------------------------------------------
    def set(self, **attrs) -> "Span":
        """Attach attributes to the span; chainable."""
        self.attrs.update(attrs)
        return self

    @property
    def duration(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        return max(0.0, self.end - self.start)

    # -- context-manager protocol -----------------------------------------
    def __enter__(self) -> "Span":
        TRACER._push(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        self.end = time.perf_counter()
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        TRACER._pop(self)

    # -- traversal ---------------------------------------------------------
    def walk(self) -> Iterator["Span"]:
        """The span and all descendants, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def render(self, indent: int = 0) -> str:
        """A human-readable tree rendering (the ``repro trace`` output)."""
        lines = [self._render_line(indent)]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)

    def _render_line(self, indent: int) -> str:
        attrs = ", ".join(
            f"{k}={v}" for k, v in sorted(self.attrs.items())
        )
        suffix = f"  [{attrs}]" if attrs else ""
        return (
            f"{'  ' * indent}{self.name:<{max(1, 44 - 2 * indent)}s}"
            f"{self.duration * 1e3:10.3f} ms{suffix}"
        )

    def __repr__(self):
        return (
            f"Span({self.name!r}, {self.duration * 1e3:.3f} ms, "
            f"{len(self.children)} children)"
        )


class _NoopSpan:
    """The shared span returned while tracing is disabled.

    Implements the full :class:`Span` surface as no-ops so instrumented
    code never branches on the tracing state itself.
    """

    __slots__ = ()
    name = ""
    category = ""
    attrs: dict = {}
    children: tuple = ()
    start = end = 0.0
    duration = 0.0
    span_id = 0
    tid = 0
    trace_id = ""

    def set(self, **_attrs) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def walk(self):
        return iter(())

    def render(self, indent: int = 0) -> str:
        return ""

    def __repr__(self):
        return "Span(<noop>)"


NOOP_SPAN = _NoopSpan()


class TraceContext:
    """A portable attachment point linking work on other threads into an
    originating span tree.

    Produced on the requesting side (:meth:`Tracer.capture`, or built
    directly around a detached root span as the conversion daemon does)
    and consumed on a worker thread with :meth:`Tracer.adopt`: while
    adopted, spans opened on the worker attach as children of
    ``parent`` instead of becoming orphan roots of the pool thread, and
    tracing is thread-locally forced to ``active``.

    ``detail`` gates the per-statement timed variant of the inspector:
    always-on service tracing keeps the span tree
    (synthesis phases, cache outcome, execute) but skips the per-``stmt``
    clock hooks unless explicitly requested.
    """

    __slots__ = ("trace_id", "parent", "active", "detail")

    def __init__(
        self,
        trace_id: str = "",
        parent: Optional[Span] = None,
        active: bool = True,
        detail: bool = True,
    ):
        self.trace_id = trace_id
        self.parent = parent
        self.active = active
        self.detail = detail

    def __repr__(self):
        return (
            f"TraceContext({self.trace_id!r}, parent="
            f"{self.parent and self.parent.name!r}, active={self.active})"
        )

#: Keep at most this many finished root spans; beyond it the oldest are
#: dropped (a traced long-running service must not grow without bound).
MAX_ROOTS = 4096


class Tracer:
    """The process tracer: enablement, thread-local stacks, root buffer."""

    def __init__(self):
        self._enabled = _env_enabled()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._roots: list[Span] = []
        self._next_id = 1
        self._thread_names: dict[int, str] = {}

    # -- enablement --------------------------------------------------------
    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    def active(self) -> bool:
        """Is tracing on for the calling thread right now?"""
        override = getattr(self._local, "override", None)
        return self._enabled if override is None else override

    class _Forced:
        __slots__ = ("_tracer", "_value", "_saved")

        def __init__(self, tracer: "Tracer", value: Optional[bool]):
            self._tracer = tracer
            self._value = value

        def __enter__(self):
            local = self._tracer._local
            self._saved = getattr(local, "override", None)
            if self._value is not None:
                local.override = self._value
            return self

        def __exit__(self, *_exc):
            self._tracer._local.override = self._saved

    def forced(self, value: Optional[bool]) -> "Tracer._Forced":
        """Thread-locally force tracing on/off (``None`` leaves it alone).

        This is what the ``trace=`` knob on :func:`repro.convert`,
        ``planner.execute`` and the fuzzer maps to.
        """
        return Tracer._Forced(self, value)

    def stmt_detail(self) -> bool:
        """Should traced executions run the per-statement timed variant?

        ``True`` (the default) preserves the historical deep-trace
        behavior of ``REPRO_TRACE=1`` / ``trace=True``; an adopted
        :class:`TraceContext` with ``detail=False`` (the conversion
        daemon's always-on mode) keeps the ``execute`` span but skips the
        per-``stmt`` clock hooks.
        """
        return getattr(self._local, "stmt_detail", True)

    # -- cross-thread context handoff --------------------------------------
    def capture(self) -> TraceContext:
        """The calling thread's current attachment point, made portable.

        Hand the result to another thread and enter :meth:`adopt` there:
        spans opened while adopted join this thread's tree instead of
        rooting on the worker.
        """
        stack = getattr(self._local, "stack", None)
        return TraceContext(
            trace_id=stack[0].trace_id if stack else "",
            parent=stack[-1] if stack else None,
            active=self.active(),
            detail=self.stmt_detail(),
        )

    class _Adopted:
        __slots__ = ("_tracer", "_ctx", "_saved", "_saved_detail", "_pushed")

        def __init__(self, tracer: "Tracer", ctx: Optional[TraceContext]):
            self._tracer = tracer
            self._ctx = ctx
            self._pushed = False

        def __enter__(self):
            if self._ctx is None:
                return self
            local = self._tracer._local
            self._saved = getattr(local, "override", None)
            self._saved_detail = getattr(local, "stmt_detail", None)
            local.override = self._ctx.active
            local.stmt_detail = self._ctx.detail
            if self._ctx.parent is not None:
                self._tracer._stack().append(self._ctx.parent)
                self._pushed = True
            return self

        def __exit__(self, *_exc):
            if self._ctx is None:
                return
            if self._pushed:
                stack = self._tracer._stack()
                # Leaked child spans above the adopted parent (an
                # exception mid-span) must not escape the adoption.
                while stack and stack[-1] is not self._ctx.parent:
                    stack.pop()
                if stack:
                    stack.pop()
            local = self._tracer._local
            local.override = self._saved
            if self._saved_detail is None:
                local.stmt_detail = True
            else:
                local.stmt_detail = self._saved_detail

    def adopt(self, ctx: Optional[TraceContext]) -> "Tracer._Adopted":
        """Attach this thread's spans under ``ctx``'s parent span.

        ``None`` is a no-op context manager, so call sites can pass an
        optional context through unconditionally.  While adopted, tracing
        is forced to ``ctx.active`` for the thread and new spans nest
        under ``ctx.parent`` — the cross-thread reparenting the
        conversion daemon's worker pool uses to keep a served request's
        synthesis/execute spans inside its ``serve.request`` tree.
        """
        return Tracer._Adopted(self, ctx)

    # -- detached spans -----------------------------------------------------
    def open_span(
        self,
        name: str,
        category: str = "",
        trace_id: str = "",
        **attrs,
    ) -> Span:
        """Open a started span owned by the caller, on no thread's stack.

        Built for event-loop code where ``with span(...)`` is wrong: many
        requests interleave on one thread, so stack nesting would tangle
        their trees.  The span gets an id, a trace id (fresh unless
        given), and its start timestamp; close it with
        :meth:`close_span`.  Children attach via :meth:`adopt` on worker
        threads — never via this thread's stack.
        """
        span = Span(name, category, attrs)
        span.trace_id = trace_id or new_trace_id()
        span.start = time.perf_counter()
        thread = threading.current_thread()
        span.tid = thread.ident or 0
        with self._lock:
            span.span_id = self._next_id
            self._next_id += 1
            self._thread_names[span.tid] = thread.name
        return span

    def close_span(self, span: Span, *, register: bool = False) -> Span:
        """Stamp a detached span's end; optionally record it as a root.

        The conversion daemon leaves ``register=False`` and hands the
        tree to its flight recorder instead, so a long-running service
        does not flood the process root buffer.
        """
        span.end = time.perf_counter()
        if register:
            with self._lock:
                self._roots.append(span)
                if len(self._roots) > MAX_ROOTS:
                    del self._roots[: len(self._roots) - MAX_ROOTS]
        return span

    def thread_names(self) -> dict[int, str]:
        """A snapshot of thread ids seen by the tracer, to their names."""
        with self._lock:
            return dict(self._thread_names)

    # -- span construction -------------------------------------------------
    def span(self, name: str, category: str = "", **attrs):
        """A context manager timing ``name`` as a child of the current span.

        Returns the shared no-op span when tracing is off — the fast path
        is one attribute read and one ``is None`` check.
        """
        if not self.active():
            return NOOP_SPAN
        return Span(name, category, attrs)

    def add_span(
        self,
        name: str,
        start: float,
        end: float,
        category: str = "",
        **attrs,
    ):
        """Record an already-timed region as a child of the current span.

        For straight-line code where wrapping in ``with`` blocks would
        force re-indentation (the synthesis engine's phase marks).
        """
        if not self.active():
            return NOOP_SPAN
        span = Span(name, category, attrs)
        span.start, span.end = start, end
        self._attach(span)
        return span

    # -- stack plumbing ----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[Span]:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        thread = threading.current_thread()
        span.tid = thread.ident or 0
        with self._lock:
            span.span_id = self._next_id
            self._next_id += 1
            self._thread_names[span.tid] = thread.name
        stack = self._stack()
        if not span.trace_id:
            # Roots start a new trace; children inherit the tree's id.
            span.trace_id = stack[0].trace_id if stack else new_trace_id()
        stack.append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        # Tolerate interleaved enable/disable: only pop what we pushed.
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()
        self._attach(span)

    def _attach(self, span: Span) -> None:
        if span.tid == 0:
            span.tid = threading.get_ident()
        if span.span_id == 0:
            with self._lock:
                span.span_id = self._next_id
                self._next_id += 1
        parent = self.current()
        if parent is not None:
            if not span.trace_id:
                span.trace_id = parent.trace_id
            parent.children.append(span)
            return
        if not span.trace_id:
            span.trace_id = new_trace_id()
        with self._lock:
            self._roots.append(span)
            if len(self._roots) > MAX_ROOTS:
                del self._roots[: len(self._roots) - MAX_ROOTS]

    # -- results -----------------------------------------------------------
    def finished_roots(self) -> list[Span]:
        """A snapshot of completed root spans (trace trees)."""
        with self._lock:
            return list(self._roots)

    def clear(self) -> None:
        """Drop all recorded trace trees (between runs / tests)."""
        with self._lock:
            self._roots.clear()

    def span_summary(self) -> dict:
        """Aggregate ``{span name: {count, seconds}}`` over all trees."""
        summary: dict[str, dict] = {}
        for root in self.finished_roots():
            for span in root.walk():
                slot = summary.setdefault(
                    span.name, {"count": 0, "seconds": 0.0}
                )
                slot["count"] += 1
                slot["seconds"] += span.duration
        return summary


#: The process-wide tracer; :func:`span` is the module-level shorthand.
TRACER = Tracer()
span = TRACER.span
add_span = TRACER.add_span
tracing = TRACER.active
capture = TRACER.capture
adopt = TRACER.adopt
