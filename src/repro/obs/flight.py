"""The flight recorder: bounded request-trace retention with tail sampling.

A long-running conversion daemon cannot keep every request's span tree,
but the traces an operator actually asks for are precisely the unusual
ones — slow, errored, or shed requests.  The recorder therefore applies
*tail sampling*: every finished request is classified after the fact,
the last ``capacity`` requests are kept in a ring buffer regardless of
outcome (the recent-request table), and anything slow/errored/shed is
additionally *retained* in a second bounded store that fresh fast
traffic cannot evict.

Memory is bounded by construction: ``capacity + retain`` records, each
holding one span tree.  Lookup by trace id checks both stores, so
``GET /debug/trace/<id>`` keeps answering for an interesting request
long after the recent ring has cycled past it.

The recorder is deliberately daemon-agnostic (it stores
:class:`RequestRecord` values, knows nothing about HTTP), so tests and
other entry points can drive it directly.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from typing import Optional

from .core import Span
from .metrics import METRICS

#: Default size of the everything-recent ring buffer.
DEFAULT_CAPACITY = 128

#: Default cap on retained (slow/error/shed) records.
DEFAULT_RETAIN = 512

#: Default latency threshold marking a request "slow", in seconds.
DEFAULT_SLOW_SECONDS = 0.25

_RECORDS = METRICS.counter(
    "repro_flight_records", "requests admitted to the flight recorder"
)


class RequestRecord:
    """One finished request: identity, outcome, and (optionally) its trace."""

    __slots__ = (
        "trace_id",
        "method",
        "endpoint",
        "status",
        "src",
        "dst",
        "backend",
        "cache_outcome",
        "seconds",
        "ts",
        "error",
        "reason",
        "root",
    )

    def __init__(
        self,
        trace_id: str,
        *,
        method: str = "POST",
        endpoint: str = "/convert",
        status: int = 200,
        src: str = "",
        dst: str = "",
        backend: str = "",
        cache_outcome: str = "",
        seconds: float = 0.0,
        error: str = "",
        root: Optional[Span] = None,
    ):
        self.trace_id = trace_id
        self.method = method
        self.endpoint = endpoint
        self.status = status
        self.src = src
        self.dst = dst
        self.backend = backend
        self.cache_outcome = cache_outcome
        self.seconds = seconds
        self.ts = time.time()
        self.error = error
        self.reason = ""  # set by the recorder's classification
        self.root = root

    @property
    def pair(self) -> str:
        if self.src and self.dst:
            return f"{self.src}->{self.dst}"
        return self.dst or ""

    def summary(self) -> dict:
        """The JSON row behind ``GET /debug/requests`` (no span tree)."""
        return {
            "trace_id": self.trace_id,
            "ts": self.ts,
            "method": self.method,
            "endpoint": self.endpoint,
            "status": self.status,
            "pair": self.pair,
            "src": self.src,
            "dst": self.dst,
            "backend": self.backend,
            "cache": self.cache_outcome,
            "seconds": round(self.seconds, 6),
            "error": self.error,
            "reason": self.reason,
            "traced": self.root is not None,
        }

    def __repr__(self):
        return (
            f"RequestRecord({self.trace_id!r}, {self.pair!r}, "
            f"{self.status}, {self.seconds * 1e3:.1f} ms"
            + (f", {self.reason}" if self.reason else "")
            + ")"
        )


class FlightRecorder:
    """Bounded two-tier store of finished request records."""

    def __init__(
        self,
        *,
        capacity: int = DEFAULT_CAPACITY,
        retain: int = DEFAULT_RETAIN,
        slow_seconds: float = DEFAULT_SLOW_SECONDS,
    ):
        self.capacity = max(1, capacity)
        self.retain = max(1, retain)
        self.slow_seconds = slow_seconds
        self._lock = threading.Lock()
        self._recent: deque[RequestRecord] = deque(maxlen=self.capacity)
        self._retained: "OrderedDict[str, RequestRecord]" = OrderedDict()

    # -- classification -------------------------------------------------
    def classify(self, record: RequestRecord) -> str:
        """Why (if at all) a record must outlive the recent ring."""
        if record.status == 503:
            return "shed"
        if record.status >= 400:
            return "error"
        if record.seconds >= self.slow_seconds:
            return "slow"
        return ""

    # -- recording ------------------------------------------------------
    def record(self, record: RequestRecord) -> RequestRecord:
        """Admit a finished request; tail-sample it into retention."""
        record.reason = self.classify(record)
        with self._lock:
            self._recent.append(record)
            if record.reason:
                self._retained[record.trace_id] = record
                self._retained.move_to_end(record.trace_id)
                while len(self._retained) > self.retain:
                    self._retained.popitem(last=False)
        _RECORDS.inc(reason=record.reason or "ok")
        return record

    # -- queries --------------------------------------------------------
    def get(self, trace_id: str) -> Optional[RequestRecord]:
        """The record for a trace id, from either store."""
        with self._lock:
            record = self._retained.get(trace_id)
            if record is not None:
                return record
            for record in reversed(self._recent):
                if record.trace_id == trace_id:
                    return record
        return None

    def recent(self, limit: Optional[int] = None) -> list[RequestRecord]:
        """Newest-first recent requests (the ``/debug/requests`` table)."""
        with self._lock:
            records = list(self._recent)
        records.reverse()
        return records[:limit] if limit else records

    def slowlog(self, limit: Optional[int] = None) -> list[RequestRecord]:
        """Newest-first retained (slow/error/shed) records."""
        with self._lock:
            records = list(self._retained.values())
        records.reverse()
        return records[:limit] if limit else records

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "retain": self.retain,
                "slow_seconds": self.slow_seconds,
                "recent": len(self._recent),
                "retained": len(self._retained),
            }

    def clear(self) -> None:
        with self._lock:
            self._recent.clear()
            self._retained.clear()
