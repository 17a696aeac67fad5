"""The conversion-as-a-service daemon behind ``repro serve``.

A long-lived asyncio process accepting JSON conversion requests over
HTTP/1.1 on a TCP port or a unix socket.  The paper's inspector-executor
split amortizes best when one synthesized conversion serves many
tensors; a resident service is what makes that amortization real:

* **admission** — every request passes the :mod:`repro.verify.gate`
  validation level it asked for (default ``"inputs"``), so malformed
  tensors are rejected with a structured 400, not converted into silently
  corrupt results;
* **coalescing** — concurrent requests sharing a (src, dst, backend,
  pass-config) fingerprint serialize on the synthesis cache's per-key
  in-flight lock (:mod:`repro.synthesis.cache`): exactly one synthesis
  runs, every waiter is served its result
  (``repro_cache_coalesced_total``);
* **execution** — conversions run on a bounded thread pool across all
  three backend tiers (the registry's c -> numpy -> python degradation
  applies per request), and the worker encodes the response too
  (:mod:`repro.serve.jsontext`); beyond ``workers + backlog`` queued
  requests the server sheds load with a 503 instead of queueing
  unboundedly;
* **observability** — every ``/convert`` request runs under a
  request-scoped trace: the daemon opens a detached ``serve.request``
  span on the event loop, the worker thread *adopts* it
  (:meth:`repro.obs.Tracer.adopt`), so the synthesis/cache/execute spans
  of the conversion land inside the request's own tree instead of
  rooting as orphans on a pool thread.  Finished trees feed a bounded
  in-memory **flight recorder** with tail sampling (the last N requests
  plus *all* slow/errored/shed ones), served back through the
  ``/debug/*`` endpoints; ``GET /metrics`` serves the live Prometheus
  exposition with exemplars linking latency buckets to trace ids.

Every response carries its trace id (``X-Repro-Trace-Id`` header + JSON
field); clients may supply their own for cross-system correlation.

The HTTP surface is deliberately tiny (stdlib-only, no framework):

==========================  ============================================
``POST /convert``           convert a COO payload (``repro-serve/1``)
``GET /metrics``            Prometheus text exposition (with exemplars)
``GET /stats``              the unified telemetry snapshot as JSON
``GET /healthz``            liveness + config summary
``GET /debug/requests``     recent-request table (id, pair, backend,
                            cache outcome, latency, status)
``GET /debug/trace/<id>``   one request's full span tree as JSON
                            (``?format=chrome`` for Perfetto)
``GET /debug/slowlog``      retained slow/errored/shed requests
==========================  ============================================

``--access-log PATH`` additionally appends one JSON line per request
(trace id, endpoint, status, latency, pair, cache outcome) — greppable
structured history beyond the in-memory recorder's horizon.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import repro.obs as obs
from repro.backends import DEFAULT_BACKEND
from repro.errors import ValidationError
from repro.verify.gate import VALIDATE_LEVELS

from . import jsontext
from .protocol import (
    SCHEMA,
    ProtocolError,
    error_body,
    parse_convert_request,
    result_document,
)

#: Default cap on queued-but-not-running requests before load shedding.
DEFAULT_BACKLOG = 64

#: Default request body limit (a COO payload of ~1M nnz fits well under).
DEFAULT_MAX_BODY = 64 * 1024 * 1024

#: Default latency above which the flight recorder retains a trace, ms.
DEFAULT_SLOW_MS = 250.0

_WORKERS = obs.gauge("repro_serve_workers", "conversion worker threads")
_REQUESTS = obs.counter("repro_serve_requests", "conversion-service requests")
_REQUEST_SECONDS = obs.histogram(
    "repro_serve_request_seconds", "end-to-end request latency by endpoint"
)
_SHED = obs.counter("repro_serve_shed", "requests shed with 503")
_DECODES = obs.counter(
    "repro_serve_decode_total",
    "/convert bodies decoded on the event loop, by who read the arrays",
)
_ENCODES = obs.counter(
    "repro_serve_encode_total",
    "/convert responses encoded on a worker, by who wrote the arrays",
)

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _default_workers() -> int:
    return min(8, max(2, (os.cpu_count() or 2)))


def _parse_query(query: str) -> dict:
    """The tiny subset of query parsing the debug endpoints need."""
    params: dict[str, str] = {}
    for part in query.split("&"):
        if part:
            name, _, value = part.partition("=")
            params[name] = value
    return params


def _content_length(value: str) -> int:
    """The Content-Length header's value: ASCII digits, else a 400."""
    if not (value.isascii() and value.isdigit()):
        raise ProtocolError(
            f"Content-Length must be a non-negative decimal integer, "
            f"got {value!r}"
        )
    return int(value)


def _int_param(params: dict, name: str) -> int | None:
    try:
        return int(params[name])
    except (KeyError, ValueError):
        return None


class ConversionServer:
    """One resident conversion service (TCP or unix-socket)."""

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: str | None = None,
        workers: int | None = None,
        backlog: int = DEFAULT_BACKLOG,
        backend: str = DEFAULT_BACKEND,
        validate: str = "inputs",
        max_body: int = DEFAULT_MAX_BODY,
        record: bool = True,
        slow_ms: float = DEFAULT_SLOW_MS,
        access_log: str | None = None,
    ):
        from repro.obs.flight import FlightRecorder
        from repro.verify.gate import normalize_level

        self.host = host
        self.port = port
        self.unix_path = unix_path
        self.workers = workers if workers else _default_workers()
        self.backlog = backlog
        self.default_backend = backend
        self.default_validate = normalize_level(validate)
        self.max_body = max_body
        self.slow_ms = slow_ms
        self.recorder = (
            FlightRecorder(slow_seconds=slow_ms / 1e3) if record else None
        )
        self.access_log_path = access_log
        self.started_at: float | None = None
        self.address: tuple[str, int] | str | None = None
        self._server: asyncio.base_events.Server | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._pending = 0
        self._access_fh = None
        self._access_lock = threading.Lock()
        self._worker_ids = itertools.count()

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket and start accepting requests."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers,
            thread_name_prefix="repro-serve",
            initializer=self._name_worker_thread,
        )
        # Built off the loop: until it loads, responses take the stdlib
        # path, with the same bytes.
        threading.Thread(
            target=jsontext.load, name="repro-serve-jsontext", daemon=True
        ).start()
        if self.access_log_path:
            self._access_fh = open(  # noqa: SIM115 - closed on stop
                self.access_log_path, "a", encoding="utf-8"
            )
        if self.unix_path:
            self._server = await asyncio.start_unix_server(
                self._handle_connection, path=self.unix_path
            )
            self.address = self.unix_path
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, host=self.host, port=self.port
            )
            sock = self._server.sockets[0]
            self.address = sock.getsockname()[:2]
        self.started_at = time.time()
        _WORKERS.set(self.workers)

    async def serve_until_stopped(self) -> None:
        assert self._server is not None and self._stop is not None
        async with self._server:
            await self._stop.wait()
        if self._pool is not None:
            self._pool.shutdown(wait=False)
        if self._access_fh is not None:
            with self._access_lock:
                try:
                    self._access_fh.close()
                except OSError:
                    pass
                self._access_fh = None
        if self.unix_path:
            try:
                os.unlink(self.unix_path)
            except OSError:
                pass

    def _name_worker_thread(self) -> None:
        """Pool initializer: ``repro-serve-N`` names for legible traces.

        ``ThreadPoolExecutor`` would name threads ``repro-serve_N``; the
        dashed form matches the rest of the telemetry taxonomy and is
        what the Chrome-trace ``thread_name`` metadata carries, so
        Perfetto renders the pool as repro-serve-0..N-1.
        """
        threading.current_thread().name = (
            f"repro-serve-{next(self._worker_ids)}"
        )

    def run(self) -> None:
        """Start and serve on this thread until interrupted (the CLI)."""

        async def _main():
            await self.start()
            await self.serve_until_stopped()

        try:
            asyncio.run(_main())
        except KeyboardInterrupt:
            pass

    def start_in_background(self, timeout: float = 10.0) -> "ConversionServer":
        """Start on a daemon thread; returns once the socket is bound."""
        ready = threading.Event()
        failure: list[BaseException] = []

        async def _main():
            try:
                await self.start()
            except BaseException as exc:  # surface bind errors to caller
                failure.append(exc)
                ready.set()
                raise
            ready.set()
            await self.serve_until_stopped()

        def _thread_main():
            try:
                asyncio.run(_main())
            except BaseException:
                pass

        self._thread = threading.Thread(target=_thread_main, daemon=True)
        self._thread.start()
        if not ready.wait(timeout):
            raise RuntimeError("server did not start in time")
        if failure:
            raise failure[0]
        return self

    def shutdown(self) -> None:
        """Stop a background server and join its thread."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    # -- HTTP plumbing --------------------------------------------------
    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except ProtocolError as exc:
                    # The body's extent is unknown: answer and hang up.
                    await self._write_response(
                        writer, 400, error_body(exc), "application/json",
                        False,
                    )
                    break
                if request is None:
                    break
                method, target, headers, body = request
                keep_alive = (
                    headers.get("connection", "keep-alive").lower()
                    != "close"
                )
                status, payload, content_type, extra = await self._route(
                    method, target, headers, body
                )
                await self._write_response(
                    writer, status, payload, content_type, keep_alive,
                    extra,
                )
                if not keep_alive:
                    break
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            asyncio.LimitOverrunError,
        ):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader):
        line = await reader.readline()
        if not line or not line.strip():
            return None
        try:
            method, target, _version = line.decode("latin1").split()
        except ValueError:
            return None
        headers: dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = _content_length(headers.get("content-length", "0"))
        if length > self.max_body:
            # Drain nothing; the 413 response closes the connection.
            return (method.upper(), target, {"connection": "close"}, b"!")
        body = await reader.readexactly(length) if length else b""
        return (method.upper(), target, headers, body)

    async def _write_response(
        self, writer, status, payload, content_type, keep_alive,
        extra_headers=None,
    ) -> None:
        body = (
            payload
            if isinstance(payload, bytes)
            else json.dumps(payload).encode()
        )
        extra = "".join(
            f"{name}: {value}\r\n"
            for name, value in (extra_headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"{extra}"
            "\r\n"
        )
        writer.write(head.encode("latin1") + body)
        await writer.drain()

    # -- routing --------------------------------------------------------
    async def _route(self, method, target, headers, body):
        path, _, query = target.partition("?")
        start = time.perf_counter()
        status, payload, content_type, extra = await self._dispatch(
            method, path, query, headers, body
        )
        elapsed = time.perf_counter() - start
        # /debug/trace/<id> would explode label cardinality; group it.
        endpoint = (
            "/debug/trace" if path.startswith("/debug/trace/") else path
        )
        trace_id = (extra or {}).get("X-Repro-Trace-Id")
        _REQUESTS.inc(endpoint=endpoint, status=str(status))
        _REQUEST_SECONDS.observe(elapsed, exemplar=trace_id, endpoint=endpoint)
        self._write_access_log(method, path, status, elapsed, trace_id)
        return status, payload, content_type, extra

    async def _dispatch(self, method, path, query, headers, body):
        json_type = "application/json"
        if path == "/healthz" and method == "GET":
            return 200, self._health_body(), json_type, {}
        if path == "/metrics" and method == "GET":
            from repro.obs.export import PROMETHEUS_CONTENT_TYPE

            text = obs.prometheus_text()
            return 200, text.encode(), PROMETHEUS_CONTENT_TYPE, {}
        if path == "/stats" and method == "GET":
            return 200, obs.unified_snapshot(), json_type, {}
        if path.startswith("/debug/") and method == "GET":
            status, payload = self._handle_debug(path, query)
            return status, payload, json_type, {}
        if path == "/convert":
            if method != "POST":
                return (
                    405,
                    {"ok": False, "error": {"type": "MethodNotAllowed",
                                            "message": "POST required"}},
                    json_type,
                    {},
                )
            if len(body) > self.max_body or body == b"!":
                return (
                    413,
                    {"ok": False, "error": {"type": "PayloadTooLarge",
                                            "message": "body too large"}},
                    json_type,
                    {},
                )
            status, payload, trace_id = await self._handle_convert(
                body, headers
            )
            return (
                status, payload, json_type,
                {"X-Repro-Trace-Id": trace_id} if trace_id else {},
            )
        return (
            404,
            {"ok": False,
             "error": {"type": "NotFound", "message": f"no route {path}"}},
            json_type,
            {},
        )

    def _health_body(self) -> dict:
        body = {
            "ok": True,
            "schema": SCHEMA,
            "workers": self.workers,
            "pending": self._pending,
            "backend": self.default_backend,
            "validate": self.default_validate,
            "record": self.recorder is not None,
            "slow_ms": self.slow_ms,
            "uptime_seconds": (
                time.time() - self.started_at if self.started_at else 0.0
            ),
        }
        if self.recorder is not None:
            body["recorder"] = self.recorder.stats()
        return body

    # -- the debug endpoints --------------------------------------------
    def _handle_debug(self, path, query):
        if self.recorder is None:
            return 404, error_body(
                LookupError(
                    "flight recorder disabled (serve --no-record)"
                )
            )
        params = _parse_query(query)
        limit = _int_param(params, "limit")
        if path == "/debug/requests":
            return 200, {
                "ok": True,
                "schema": SCHEMA,
                "recorder": self.recorder.stats(),
                "requests": [
                    r.summary() for r in self.recorder.recent(limit)
                ],
            }
        if path == "/debug/slowlog":
            return 200, {
                "ok": True,
                "schema": SCHEMA,
                "slow_ms": self.slow_ms,
                "requests": [
                    r.summary() for r in self.recorder.slowlog(limit)
                ],
            }
        if path.startswith("/debug/trace/"):
            from repro.obs.export import chrome_trace, span_tree

            trace_id = path[len("/debug/trace/"):]
            record = self.recorder.get(trace_id)
            if record is None:
                return 404, error_body(
                    LookupError(
                        f"no recorded trace {trace_id!r} (evicted or "
                        f"never seen)"
                    )
                )
            if record.root is None:
                return 404, error_body(
                    LookupError(f"trace {trace_id!r} carries no spans")
                )
            if params.get("format") == "chrome":
                return 200, chrome_trace([record.root])
            return 200, {
                "ok": True,
                "schema": SCHEMA,
                "trace_id": trace_id,
                "request": record.summary(),
                "root": span_tree(record.root),
            }
        return 404, error_body(LookupError(f"no debug route {path}"))

    # -- the conversion endpoint ----------------------------------------
    async def _handle_convert(self, body: bytes, headers: dict):
        # Client-supplied correlation: the JSON field is validated
        # strictly (400 on a bad value, inside parse_convert_request);
        # the header is best-effort and silently ignored when invalid.
        header_id = headers.get("x-repro-trace-id", "")
        if not obs.valid_trace_id(header_id):
            header_id = ""
        started = time.perf_counter()  # decode starts

        def _reject(status, exc, trace_id, *, dst=""):
            trace_id = trace_id or obs.new_trace_id()
            self._record_request(
                trace_id,
                status=status,
                seconds=time.perf_counter() - started,
                dst=dst,
                error=f"{type(exc).__name__}: {exc}",
            )
            return status, error_body(exc, trace_id=trace_id), trace_id

        # Decoded on the loop: cffi drops the interpreter lock while the
        # scanners run, so the workers keep converting meanwhile.
        lib = jsontext.formatter()
        path = jsontext.decode_path(body, lib)
        _DECODES.inc(path=path)
        try:
            doc = jsontext.decode(body, lib)
        except RecursionError:
            return _reject(
                400, ProtocolError("bad JSON: nested too deeply"), header_id
            )
        except (UnicodeDecodeError, ValueError) as exc:
            return _reject(
                400, ProtocolError(f"bad JSON: {exc}"), header_id
            )
        try:
            request = parse_convert_request(
                {
                    "backend": self.default_backend,
                    "validate": self.default_validate,
                    **doc,
                }
                if isinstance(doc, dict)
                else doc
            )
            # A request may tighten the daemon's input gate, never loosen
            # it: the native tier trusts ungated coordinates.
            levels = VALIDATE_LEVELS
            if levels.index(request["validate"]) < levels.index(
                self.default_validate
            ):
                raise ProtocolError(
                    f"validate={request['validate']!r} is weaker than this "
                    f"daemon's validate={self.default_validate!r}; ask for "
                    "that level or a stricter one"
                )
        except (ProtocolError, ValidationError) as exc:
            # A ValidationError here is the matrix constructor rejecting
            # an index or value; its message names the field.
            return _reject(400, exc, header_id)
        decoded = time.perf_counter()
        trace_id = request["trace_id"] or header_id or obs.new_trace_id()
        if self._pending >= self.workers + self.backlog:
            _SHED.inc()
            return _reject(
                503,
                ProtocolError("server at capacity, retry later"),
                trace_id,
                dst=request["dst"],
            )
        # The request-scoped trace root.  Detached on purpose: many
        # requests interleave on this event-loop thread, so the
        # thread-local stack cannot hold it; the worker thread adopts
        # the context instead, and children attach from there.
        root = obs.TRACER.open_span(
            "serve.request",
            category="serve",
            trace_id=trace_id,
            endpoint="/convert",
            dst=request["dst"],
        )
        root.start = started  # the root covers decode through encode
        ctx = obs.TraceContext(
            trace_id=trace_id, parent=root, active=True, detail=False
        )
        loop = asyncio.get_running_loop()
        queued_at = time.perf_counter()
        self._pending += 1
        try:
            status, payload, body = await loop.run_in_executor(
                self._pool, self._do_convert, request, trace_id, ctx,
                (started, decoded, path), queued_at,
            )
        finally:
            self._pending -= 1
        obs.TRACER.close_span(root)
        root.set(status=status)
        self._record_convert(trace_id, request, status, payload, root,
                             started)
        return status, body, trace_id

    def _record_request(self, trace_id, **fields):
        """Admit one finished request to the flight recorder, if enabled."""
        if self.recorder is None:
            return
        from repro.obs.flight import RequestRecord

        self.recorder.record(RequestRecord(trace_id, **fields))

    def _record_convert(
        self, trace_id, request, status, payload, root, started
    ):
        """Build the convert request's flight record from its span tree."""
        if self.recorder is None:
            return
        src = backend = cache = ""
        for node in root.walk():
            if node.name == "convert":
                src = str(node.attrs.get("src", "")) or src
                backend = str(node.attrs.get("backend", "")) or backend
            elif node.name == "cache.lookup":
                cache = str(node.attrs.get("outcome", "")) or cache
        meta = payload.get("meta")
        if not backend and isinstance(meta, dict):
            backend = str(meta.get("backend", ""))
        error = payload.get("error")
        self._record_request(
            trace_id,
            status=status,
            src=src,
            dst=request["dst"],
            backend=backend,
            cache_outcome=cache,
            seconds=time.perf_counter() - started,
            error=(
                f"{error.get('type')}: {error.get('message')}"
                if isinstance(error, dict)
                else ""
            ),
            root=root,
        )

    def _write_access_log(self, method, path, status, seconds, trace_id):
        """Append one structured JSONL line per request, if configured."""
        if self._access_fh is None:
            return
        entry = {
            "ts": time.time(),
            "method": method,
            "path": path,
            "status": status,
            "seconds": round(seconds, 6),
            "trace_id": trace_id or "",
        }
        if trace_id and self.recorder is not None:
            record = self.recorder.get(trace_id)
            if record is not None:
                entry["pair"] = record.pair
                entry["backend"] = record.backend
                entry["cache"] = record.cache_outcome
                entry["reason"] = record.reason
        line = json.dumps(entry) + "\n"
        with self._access_lock:
            if self._access_fh is None:
                return
            try:
                self._access_fh.write(line)
                self._access_fh.flush()
            except (OSError, ValueError):
                pass

    def _do_convert(self, request: dict, trace_id: str, ctx, decoded,
                    queued_at):
        """Worker-thread body: gate, synthesize (coalesced), execute,
        encode.

        Runs under :meth:`repro.obs.Tracer.adopt`, so every span the
        conversion opens lands inside the request's ``serve.request``
        tree instead of rooting as an orphan on this pool thread.
        ``decoded`` is the (start, end) the event loop measured for the
        body's decode and the path that read it.  Returns the status, the
        payload and its bytes.
        """
        start, end, read_by = decoded
        with obs.TRACER.adopt(ctx):
            obs.add_span(
                "serve.decode", start, end, category="serve", path=read_by
            )
            obs.add_span(
                "serve.queue_wait",
                queued_at,
                time.perf_counter(),
                category="serve",
            )
            status, payload = self._convert_body(request)
            payload["trace_id"] = trace_id
            meta = payload.get("meta")
            if isinstance(meta, dict):
                meta["trace_id"] = trace_id
            lib = jsontext.formatter()
            path = "stdlib" if lib is None else "native"
            with obs.span("serve.encode", category="serve", path=path):
                body = jsontext.encode(payload, lib)
            _ENCODES.inc(path=path)
            return status, payload, body

    def _convert_body(self, request: dict):
        from repro import convert
        from repro.backends import available_backend
        from repro.planner import convert_via_plan
        from repro.synthesis import SynthesisError

        matrix = request["matrix"]
        # null promises no order: the input check names SCOO when it
        # finds the entries strictly increasing.
        assume_sorted = request["assume_sorted"]
        start = time.perf_counter()
        try:
            backend = available_backend(request["backend"]).name
            if request["plan"]:
                result = convert_via_plan(
                    matrix,
                    request["dst"],
                    backend=backend,
                    assume_sorted=assume_sorted,
                    validate=request["validate"],
                )
            else:
                result = convert(
                    matrix,
                    request["dst"],
                    optimize=request["optimize"],
                    binary_search=request["binary_search"],
                    backend=backend,
                    assume_sorted=assume_sorted,
                    validate=request["validate"],
                )
        except ValidationError as exc:
            return (400, error_body(exc))
        except SynthesisError as exc:
            return (422, error_body(exc))
        except (KeyError, ValueError) as exc:
            return (400, error_body(exc))
        except Exception as exc:  # noqa: BLE001 - daemon must not die
            return (500, error_body(exc))
        elapsed = time.perf_counter() - start
        return (
            200,
            {
                "ok": True,
                "schema": SCHEMA,
                "format": request["dst"],
                "result": result_document(result, request["dst"]),
                "meta": {
                    "backend": backend,
                    "validate": request["validate"],
                    "seconds": elapsed,
                },
            },
        )
