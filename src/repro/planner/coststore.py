"""Persistent learned-cost store: (conversion, stats-bucket) -> seconds.

The matrix-aware planner predicts edge costs from code structure scaled
by :class:`~repro.planner.stats.MatrixStats`; the auto-tuner confirms
predictions with short measured runs.  This module keeps those
measurements, so the second user with a *similar* matrix (same stats
bucket) gets the tuned plan with zero measurement.

On disk: one JSON file, ``costs.json`` under ``$REPRO_COSTS_DIR``
(default ``~/.cache/repro-spf/costs``).  A store fixes its path when it
is built.  Each flush writes the document to a fresh temp name under
the exclusive file lock, unlinks ``costs.json`` and renames the temp
into place, and a load reads under the same lock taken shared, so no
reader sees the moment between.  Renaming over the existing file would
cost every flush an ≈65 ms stall on ext4 (``auto_da_alloc`` forces the
new data out first), where an unlink and a rename onto a free name cost
microseconds.

Entries are keyed ``<conversion key>|<stats bucket>`` where the
conversion key hashes the package's code version, the backend and the
*generated inspector source* — two descriptor parameterizations that
lower to identical code share their measurements, as do two processes
(each prints the same source), and an entry measured against other code
is never looked up again.  Each entry keeps an exponentially weighted
mean of the measured seconds, the prediction (in abstract cost units)
current when it was recorded, and an update count.  The store is
size-bounded: beyond :data:`MAX_ENTRIES` entries the oldest-updated are
evicted, so entries of earlier code versions age out.

:meth:`CostStore.calibration` returns the median measured-seconds per
predicted-unit over all entries — the bridge that lets Dijkstra mix
learned (seconds) and predicted (unit) edge costs on one scale.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import threading
import time
from pathlib import Path

import repro.obs as obs
from repro.filelock import file_lock

_WRITE = obs.counter("repro_costs_write_total", "cost-store flushes")
_WRITE_ERROR = obs.counter(
    "repro_costs_write_error_total", "cost-store flushes that failed"
)
_HIT = obs.counter("repro_costs_hit_total", "cost-store lookups answered")
_MISS = obs.counter("repro_costs_miss_total", "cost-store lookups unanswered")
_RECORD = obs.counter("repro_costs_record_total", "measurements recorded")
_EVICT = obs.counter("repro_costs_evict_total", "cost-store entries evicted")


#: Bound on stored entries; evictions drop the oldest-updated.
MAX_ENTRIES = 4096

#: Weight of the newest measurement in the per-entry running mean.
EWMA_ALPHA = 0.5

_SCHEMA = 1


def costs_root() -> Path:
    env = os.environ.get("REPRO_COSTS_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-spf" / "costs"


def conversion_cost_key(conversion) -> str:
    """Identity of one conversion for cost purposes.

    Hashes the package's code version, the backend and the generated
    source: identical code has identical cost behavior regardless of
    which descriptor names or parameterizations produced it.
    """
    from repro.codeversion import code_version_hash

    blob = f"{code_version_hash()}\n{conversion.backend}\n{conversion.source}"
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class CostStore:
    """A small, bounded, atomically persisted measured-cost table."""

    def __init__(self, path: Path | str | None = None):
        self.path = Path(path) if path is not None else \
            costs_root() / "costs.json"
        self._lock = threading.Lock()
        self._entries: dict[str, dict] | None = None

    # -- file plumbing --------------------------------------------------
    def _read_disk(self) -> dict[str, dict]:
        try:
            with open(self.path) as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            return {}
        if payload.get("schema") != _SCHEMA:
            return {}
        return dict(payload.get("entries", {}))

    def _load(self) -> dict[str, dict]:
        if self._entries is None:
            with file_lock(self.path, shared=True):
                self._entries = self._read_disk()
        return self._entries

    def _merge_from_disk_locked(self, entries: dict[str, dict]) -> None:
        """Adopt concurrent writers' entries before overwriting the file.

        The flush below rewrites the whole JSON document, so anything
        another process recorded since our load would be lost without
        this re-merge.  Per key, the newest ``updated`` timestamp wins —
        our just-recorded entry carries a fresh one.
        """
        for key, disk_entry in self._read_disk().items():
            ours = entries.get(key)
            if ours is None or disk_entry.get("updated", 0.0) > ours.get(
                "updated", 0.0
            ):
                entries[key] = disk_entry

    def _flush_locked(self) -> None:
        """Replace the document on disk; the caller holds the exclusive
        file lock.  No rename lands on an existing file (module doc)."""
        payload = {"schema": _SCHEMA, "entries": self._entries or {}}
        tmp = None
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=str(self.path.parent), prefix=self.path.name,
                suffix=".tmp",
            )
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(payload))
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.path)
            os.rename(tmp, self.path)
            _WRITE.inc()
        except OSError:
            if tmp is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
            _WRITE_ERROR.inc()

    # -- the store API --------------------------------------------------
    @staticmethod
    def _key(conv_key: str, bucket: str) -> str:
        return f"{conv_key}|{bucket}"

    def lookup(self, conv_key: str, bucket: str) -> dict | None:
        """The learned entry for (conversion, bucket), or None.

        Entries look like ``{"seconds": float, "predicted": float|None,
        "count": int, "updated": float, "label": str}``.
        """
        with self._lock:
            entry = self._load().get(self._key(conv_key, bucket))
        (_HIT if entry else _MISS).inc()
        return dict(entry) if entry else None

    def record(
        self,
        conv_key: str,
        bucket: str,
        seconds: float,
        *,
        predicted: float | None = None,
        label: str = "",
    ) -> None:
        """Fold one measurement into the store and persist it."""
        with self._lock:
            entries = self._load()
            key = self._key(conv_key, bucket)
            prev = entries.get(key)
            if prev is None:
                entry = {"seconds": seconds, "count": 1}
            else:
                entry = {
                    "seconds": (
                        EWMA_ALPHA * seconds
                        + (1 - EWMA_ALPHA) * prev["seconds"]
                    ),
                    "count": prev.get("count", 0) + 1,
                }
            entry["predicted"] = predicted
            entry["label"] = label
            entry["updated"] = time.time()
            entries[key] = entry
            with file_lock(self.path):
                self._merge_from_disk_locked(entries)
                self._evict_locked(entries)
                self._flush_locked()
        _RECORD.inc()

    def _evict_locked(self, entries: dict[str, dict]) -> None:
        excess = len(entries) - MAX_ENTRIES
        if excess <= 0:
            return
        oldest = sorted(
            entries, key=lambda k: entries[k].get("updated", 0.0)
        )[:excess]
        for key in oldest:
            del entries[key]
        _EVICT.inc(excess)

    def calibration(self) -> float | None:
        """Median measured-seconds per predicted-unit, or None if unknown.

        Multiplying a predicted edge cost by this factor puts it on the
        same scale as learned (measured) edge costs, so a plan search can
        mix both.
        """
        with self._lock:
            ratios = sorted(
                e["seconds"] / e["predicted"]
                for e in self._load().values()
                if e.get("predicted")
            )
        if not ratios:
            return None
        return ratios[len(ratios) // 2]

    # -- maintenance ----------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._load())

    def entries(self) -> dict[str, dict]:
        with self._lock:
            return {k: dict(v) for k, v in self._load().items()}

    def clear(self) -> int:
        with self._lock:
            entries = self._load()
            removed = len(entries)
            entries.clear()
            with file_lock(self.path):
                self._flush_locked()
        return removed

    def stats(self) -> dict:
        with self._lock:
            entries = self._load()
            measured = sum(e.get("count", 0) for e in entries.values())
        return {
            "path": str(self.path),
            "entries": len(entries),
            "measurements": measured,
            "limit": MAX_ENTRIES,
            "calibration": self.calibration(),
        }


#: Guards the process-wide default store singleton.
_STORE_LOCK = threading.Lock()
_DEFAULT_STORE: CostStore | None = None


def default_cost_store() -> CostStore:
    global _DEFAULT_STORE
    store = _DEFAULT_STORE
    if store is None:
        with _STORE_LOCK:
            store = _DEFAULT_STORE
            if store is None:
                store = _DEFAULT_STORE = CostStore()
    return store


def reset_default_store() -> None:
    """Drop the singleton (tests re-point REPRO_COSTS_DIR between cases)."""
    global _DEFAULT_STORE
    with _STORE_LOCK:
        _DEFAULT_STORE = None
