"""Synthesis memo and persistent inspector cache.

Three layers make repeated synthesis cheap:

1. the hash-consed IR with memoized set/relation algebra (:mod:`repro.ir`),
2. a process-wide memo of :func:`synthesize` results keyed on format
   fingerprints (this module),
3. an on-disk cache of generated inspector source under
   ``$REPRO_CACHE_DIR`` (default ``~/.cache/repro-spf``), keyed on the
   (source format, destination format, options, backend) tuple and
   partitioned by a hash of the package's own source code so a stale cache
   can never serve code from an older version of the synthesizer.

Disk entries are JSON payloads written atomically (tempfile +
``os.replace``), so concurrent processes warming the same cache directory
are safe.  A conversion loaded from disk carries the generated source,
signature, metadata and the lowered ``program`` with its ``symtab`` — the
record its cost features, display C and deep-trace timing are printed
from — but not the SPF ``computation`` (a synthesis intermediate; callers
that need it — like tandem synthesis — use
:func:`repro.synthesis.synthesize` directly).

Disk entries are sharded into 256 two-hex-digit subdirectories per
version partition (``<version>/<xx>/<entry>.json``) so a hot cache never
concentrates thousands of files in one directory, and the store is
optionally size-bounded: set a byte or entry budget and the least
recently *used* entries (hits refresh an entry's mtime) are evicted
after each write.

Environment knobs:

* ``REPRO_CACHE_DIR`` — cache location (default ``~/.cache/repro-spf``),
* ``REPRO_CACHE_DISABLE=1`` — skip the disk layer entirely,
* ``REPRO_CACHE_MAX_BYTES`` — LRU byte budget per version partition
  (unset or empty = unbounded),
* ``REPRO_CACHE_MAX_ENTRIES`` — LRU entry-count budget per version
  partition (unset or empty = unbounded),
* ``REPRO_CACHE_STATS_FILE=path`` — dump the unified telemetry snapshot
  (cache counters included) as JSON at process exit (used by CI to
  assert cache effectiveness).
"""

from __future__ import annotations

import atexit
import base64
import hashlib
import json
import os
import pickle
import re
import tempfile
import threading
import time
from pathlib import Path
from typing import Sequence

import repro.obs as obs
from repro.codeversion import code_version_hash
from repro.formats.descriptor import FormatDescriptor

from .conversion import SynthesisError, SynthesizedConversion
from .engine import PHASE_SECONDS, synthesize as _raw_synthesize

_MEMO_HIT = obs.counter("repro_cache_memo_hit_total", "synthesis memo hits")
_COALESCED = obs.counter(
    "repro_cache_coalesced_total",
    "lookups served a result another thread synthesized meanwhile",
)
_DISK_HIT = obs.counter("repro_cache_disk_hit_total", "disk-cache hits")
_DISK_NEGATIVE_HIT = obs.counter(
    "repro_cache_disk_negative_hit_total",
    "disk-cache hits on a recorded synthesis failure",
)
_MISS = obs.counter("repro_cache_miss_total", "lookups that ran synthesis")
_DISK_WRITE = obs.counter("repro_cache_disk_write_total", "disk-cache writes")
_DISK_NEGATIVE_WRITE = obs.counter(
    "repro_cache_disk_negative_write_total",
    "synthesis failures recorded on disk",
)
_DISK_WRITE_ERROR = obs.counter(
    "repro_cache_disk_write_error_total", "disk-cache writes that failed"
)
_DISK_EVICT = obs.counter(
    "repro_cache_disk_evict_total", "disk-cache entries evicted by budget"
)
#: The counters :func:`cache_stats` reports.
_COUNTERS = (
    _MEMO_HIT,
    _COALESCED,
    _DISK_HIT,
    _DISK_NEGATIVE_HIT,
    _MISS,
    _DISK_WRITE,
    _DISK_NEGATIVE_WRITE,
    _DISK_WRITE_ERROR,
    _DISK_EVICT,
)
_DISK_LOAD_SECONDS = obs.histogram(
    "repro_cache_disk_load_seconds", "disk-cache entry read time"
)

#: Serialized SynthesizedConversion fields round-tripped through disk.
_PAYLOAD_FIELDS = (
    "name",
    "src_format",
    "dst_format",
    "params",
    "returns",
    "source",
    "uf_output_map",
    "notes",
    "backend",
    "vector_stats",
)

#: Bumped to 2 when the cache key grew the pass-pipeline fingerprint, to 3
#: when the pickled ``program`` replaced the stored text renderings.
_PAYLOAD_VERSION = 3

#: Attribute the computed fingerprint is memoized under, directly on the
#: descriptor object.  A module-level ``id()``-keyed table here used to
#: pin a strong reference to every descriptor ever fingerprinted — an
#: unbounded leak in long-lived processes handling parameterized
#: ``BCSR{k}`` factories; the attribute dies with its descriptor.
_FP_ATTR = "_repro_fingerprint"

#: Process-wide memo of synthesis results (including failures).
_MEMO: dict[tuple, SynthesizedConversion | SynthesisError] = {}

#: Per-key in-flight synthesis locks: N threads missing on the same key
#: serialize here, so exactly one runs synthesis and the rest are served
#: its memoized result (``repro_cache_coalesced_total``).  The daemon's
#: request coalescing is this same primitive reached through ``convert()``.
_INFLIGHT_GUARD = threading.Lock()
_INFLIGHT: dict[tuple, threading.Lock] = {}


def _inflight_lock(key: tuple) -> threading.Lock:
    with _INFLIGHT_GUARD:
        lock = _INFLIGHT.get(key)
        if lock is None:
            lock = _INFLIGHT[key] = threading.Lock()
        return lock


def format_fingerprint(fmt: FormatDescriptor) -> str:
    """A stable content hash of a format descriptor.

    Serializes the descriptor through the JSON schema (textual relation
    notation), so two descriptor objects with identical semantics share a
    fingerprint even across processes.  Memoized on the descriptor object
    itself, so the cache's lifetime is exactly the descriptor's.
    """
    cached = fmt.__dict__.get(_FP_ATTR)
    if cached is not None:
        return cached
    from repro.io.descriptor_json import descriptor_to_dict

    blob = json.dumps(descriptor_to_dict(fmt), sort_keys=True)
    fp = hashlib.sha256(blob.encode()).hexdigest()[:16]
    setattr(fmt, _FP_ATTR, fp)
    return fp


# ----------------------------------------------------------------------
# Disk layer
# ----------------------------------------------------------------------
def cache_root() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-spf"


#: Version partitions are 16-hex-digit directories directly under the
#: root; everything else under the root (``costs/``, future siblings) is
#: NOT inspector-cache data and must survive ``clear_disk_cache``.
_PARTITION_RE = re.compile(r"[0-9a-f]{16}")


def cache_dir() -> Path:
    """Version-partitioned cache directory for the current source tree."""
    return cache_root() / code_version_hash()[:16]


def version_partitions(root: Path | None = None) -> list[Path]:
    """The inspector-entry version partitions under the cache root.

    Only these hold cached inspectors; sibling directories (the learned
    cost store under ``costs/``, the compiled-artifact cache) are other
    subsystems' data.
    """
    root = cache_root() if root is None else root
    if not root.is_dir():
        return []
    return sorted(
        sub
        for sub in root.iterdir()
        if sub.is_dir() and _PARTITION_RE.fullmatch(sub.name)
    )


def disk_enabled() -> bool:
    return os.environ.get("REPRO_CACHE_DISABLE", "") not in (
        "1",
        "true",
        "on",
        "yes",
    )


def _budget_env(name: str) -> int | None:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value >= 0 else None


def cache_max_bytes() -> int | None:
    """Byte budget per version partition (``REPRO_CACHE_MAX_BYTES``)."""
    return _budget_env("REPRO_CACHE_MAX_BYTES")


def cache_max_entries() -> int | None:
    """Entry budget per version partition (``REPRO_CACHE_MAX_ENTRIES``)."""
    return _budget_env("REPRO_CACHE_MAX_ENTRIES")


def _entry_path(key: tuple) -> Path:
    src_fp, dst_fp, optimize, binary_search, pass_fp, backend, name = key
    flags = f"{int(optimize)}{int(binary_search)}"
    tail = hashlib.sha256(repr(key).encode()).hexdigest()[:12]
    # Two-hex-digit shard subdir: 256-way fan-out keeps any one directory
    # small however many pairs x configs a long-lived service accumulates.
    return (
        cache_dir()
        / tail[:2]
        / f"{src_fp}.{dst_fp}.{backend}.{flags}.{tail}.json"
    )


def _atomic_write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _store_disk(
    key: tuple, conv: SynthesizedConversion | SynthesisError
) -> None:
    if isinstance(conv, SynthesisError):
        # Negative entries save warm processes from re-running the doomed
        # (and often slowest) synthesis attempts; they are just as safe as
        # positive ones — the key covers format content and code version.
        payload = {"synthesis_error": str(conv)}
        _DISK_NEGATIVE_WRITE.inc()
    else:
        payload = {f: getattr(conv, f) for f in _PAYLOAD_FIELDS}
        payload["params"] = list(conv.params)
        payload["returns"] = list(conv.returns)
        payload["program"] = base64.b64encode(
            pickle.dumps((conv.program, conv.symtab))
        ).decode("ascii")
    payload["version"] = _PAYLOAD_VERSION
    payload["code_version"] = code_version_hash()
    try:
        _atomic_write_json(_entry_path(key), payload)
        _DISK_WRITE.inc()
    except OSError:
        _DISK_WRITE_ERROR.inc()
        return
    enforce_budget()


def _partition_entries(partition: Path) -> list[tuple[Path, float, int]]:
    """(path, mtime, size) for every entry in one version partition."""
    entries = []
    for path in partition.rglob("*.json"):
        try:
            stat = path.stat()
        except OSError:
            continue
        entries.append((path, stat.st_mtime, stat.st_size))
    return entries


def enforce_budget(partition: Path | None = None) -> int:
    """Evict least-recently-used entries beyond the configured budget.

    Applies ``REPRO_CACHE_MAX_BYTES`` / ``REPRO_CACHE_MAX_ENTRIES`` to
    one version partition (the current one by default).  Recency is the
    entry file's mtime — refreshed on every disk hit — so eviction is
    LRU, not insertion-order.  Returns the number of files removed; a
    no-op (and no directory scan) when neither budget is set.
    """
    max_bytes = cache_max_bytes()
    max_count = cache_max_entries()
    if max_bytes is None and max_count is None:
        return 0
    partition = cache_dir() if partition is None else partition
    if not partition.is_dir():
        return 0
    entries = sorted(_partition_entries(partition), key=lambda e: e[1])
    total = sum(size for _, _, size in entries)
    count = len(entries)
    removed = 0
    for path, _, size in entries:
        over_bytes = max_bytes is not None and total > max_bytes
        over_count = max_count is not None and count > max_count
        if not (over_bytes or over_count):
            break
        try:
            path.unlink()
        except OSError:
            continue
        total -= size
        count -= 1
        removed += 1
    if removed:
        _DISK_EVICT.inc(removed)
    return removed


def _load_disk(
    key: tuple,
) -> SynthesizedConversion | SynthesisError | None:
    path = _entry_path(key)
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError):
        return None
    try:
        # LRU recency: a hit refreshes the mtime budget eviction sorts by.
        os.utime(path)
    except OSError:
        pass
    if payload.get("version") != _PAYLOAD_VERSION:
        return None
    if payload.get("code_version") != code_version_hash():
        return None  # belt and braces: the directory is already versioned
    if "synthesis_error" in payload:
        return SynthesisError(payload["synthesis_error"])
    # Unpickling adds no trust: this same entry's ``source`` is exec'd.
    program, symtab = pickle.loads(base64.b64decode(payload["program"]))
    return SynthesizedConversion(
        name=payload["name"],
        src_format=payload["src_format"],
        dst_format=payload["dst_format"],
        computation=None,
        params=tuple(payload["params"]),
        returns=tuple(payload["returns"]),
        source=payload["source"],
        symtab=symtab,
        program=program,
        uf_output_map=dict(payload["uf_output_map"]),
        notes=list(payload["notes"]),
        backend=payload["backend"],
        vector_stats=payload["vector_stats"],
    )


# ----------------------------------------------------------------------
# The cached synthesis entry point
# ----------------------------------------------------------------------
def synthesize_cached(
    src: FormatDescriptor,
    dst: FormatDescriptor,
    *,
    optimize: bool = True,
    binary_search: bool = False,
    name: str | None = None,
    backend: str = "python",
    disabled_passes: tuple[str, ...] = (),
) -> SynthesizedConversion:
    """:func:`repro.synthesis.synthesize` behind the memo and disk cache.

    Results (including :class:`SynthesisError` failures) are memoized for
    the process; successful results are persisted to the disk cache so a
    later process skips synthesis entirely and only loads + execs source.

    The key covers the resolved pass pipeline (via
    :meth:`~repro.pipeline.PassManager.fingerprint`), so a conversion
    synthesized with ``--disable-pass fusion`` can never be served a
    cached inspector built with the full pipeline — and vice versa.
    """
    from repro.backends import get_backend
    from repro.pipeline import BINARY_SEARCH, PASSES

    backend_name = get_backend(backend).name
    pass_fp = PASSES.fingerprint(
        PASSES.config(
            optimize=optimize,
            requested=(BINARY_SEARCH,) if binary_search else (),
            disabled=tuple(disabled_passes),
        )
    )
    key = (
        format_fingerprint(src),
        format_fingerprint(dst),
        optimize,
        binary_search,
        pass_fp,
        backend_name,
        name,
    )
    with obs.span(
        "cache.lookup",
        category="cache",
        src=src.name,
        dst=dst.name,
        backend=backend_name,
    ) as span:
        cached = _MEMO.get(key)
        if cached is not None:
            _MEMO_HIT.inc()
            span.set(outcome="memo_hit")
            if isinstance(cached, SynthesisError):
                raise cached
            return cached

        # Serialize misses per key: without this, N threads missing
        # simultaneously all ran synthesis and raced the disk write.  The
        # one lock holder synthesizes; everyone queued behind it lands on
        # the re-check below and is served the same result (the request
        # coalescing `repro serve` amortizes synthesis with).
        with _inflight_lock(key):
            cached = _MEMO.get(key)
            if cached is not None:
                _MEMO_HIT.inc()
                _COALESCED.inc()
                span.set(outcome="coalesced")
                if isinstance(cached, SynthesisError):
                    raise cached
                return cached

            if disk_enabled():
                start = time.perf_counter()
                loaded = _load_disk(key)
                _DISK_LOAD_SECONDS.observe(time.perf_counter() - start)
                if loaded is not None:
                    _DISK_HIT.inc()
                    _MEMO[key] = loaded
                    if isinstance(loaded, SynthesisError):
                        _DISK_NEGATIVE_HIT.inc()
                        span.set(outcome="disk_negative_hit")
                        raise loaded
                    span.set(outcome="disk_hit")
                    return loaded

            _MISS.inc()
            span.set(outcome="miss")
            start = time.perf_counter()
            try:
                conv = _raw_synthesize(
                    src,
                    dst,
                    optimize=optimize,
                    binary_search=binary_search,
                    name=name,
                    backend=backend_name,
                    disabled_passes=tuple(disabled_passes),
                )
            except SynthesisError as err:
                conv = err
            PHASE_SECONDS.observe(time.perf_counter() - start, phase="total")
            _MEMO[key] = conv
            if disk_enabled():
                _store_disk(key, conv)
            if isinstance(conv, SynthesisError):
                raise conv
            return conv


def clear_memo() -> None:
    """Drop the in-process synthesis memo (mainly for tests)."""
    _MEMO.clear()


def clear_disk_cache(*, all_versions: bool = False) -> int:
    """Delete cached inspector entries; returns the number removed.

    By default only the current code version's partition is cleared;
    ``all_versions=True`` removes every version partition under the root.
    Only inspector partitions (16-hex-digit directories) are touched:
    sibling data under the cache root — notably the learned cost store in
    ``costs/`` — is other subsystems' and survives a full clear.  (An
    unscoped ``rglob`` here used to wipe the cost store's JSON too.)
    """
    removed = 0
    roots = version_partitions() if all_versions else [cache_dir()]
    for root in roots:
        if not root.is_dir():
            continue
        for path in sorted(root.rglob("*.json")):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
    return removed


def cache_stats() -> dict:
    """Counters plus on-disk shape of the cache, for the CLI and CI."""
    root = cache_root()
    current = cache_dir()
    current_entries = (
        _partition_entries(current) if current.is_dir() else []
    )
    stale = 0
    for sub in version_partitions(root):
        if sub != current:
            stale += sum(1 for _ in sub.rglob("*.json"))
    return {
        "root": str(root),
        "code_version": code_version_hash()[:16],
        "disk_enabled": disk_enabled(),
        "entries": len(current_entries),
        "bytes": sum(size for _, _, size in current_entries),
        "max_bytes": cache_max_bytes(),
        "max_entries": cache_max_entries(),
        "stale_entries": stale,
        "memo_entries": len(_MEMO),
        "counters": {c.name: c.value() for c in _COUNTERS},
    }


# ----------------------------------------------------------------------
# Warming
# ----------------------------------------------------------------------
def _planner_pairs() -> list[tuple[str, str]]:
    from repro.planner import PLANNABLE_2D, PLANNABLE_3D

    return [
        (a, b)
        for group in (PLANNABLE_2D, PLANNABLE_3D)
        for a in group
        for b in group
        if a != b
    ]


def _warm_pair(job: tuple[str, str, str, bool]) -> tuple[bool, dict]:
    """Synthesize one pair into the shared disk cache and, when ``build``
    is set, build what its first call would (worker-safe).  Returns
    whether the pair synthesizes, and the counts the job added."""
    from repro.backends import get_backend
    from repro.formats import get_format

    src, dst, backend, build = job
    before = obs.METRICS.counts()
    try:
        conv = synthesize_cached(
            get_format(src), get_format(dst), backend=backend
        )
    except SynthesisError:
        conv = None
    if conv is not None and build:
        get_backend(backend).prepare(conv)
    added = {
        key: value - before.get(key, 0)
        for key, value in obs.METRICS.counts().items()
        if value != before.get(key, 0)
    }
    return conv is not None, added


def warm(
    *,
    backend: str = "python",
    jobs: int = 1,
    pairs: Sequence[tuple[str, str]] | None = None,
) -> dict:
    """Pre-synthesize the planner's conversion graph into the disk cache,
    and build each conversion's compiled artifact (the C tier's library)
    through the same path its first call takes.

    ``jobs > 1`` fans the pairs out over worker processes and adds their
    counts (synthesis-cache writes, compiles) to this process's counters;
    atomic writes make concurrent population of one cache directory
    safe.  Returns a ``{"synthesized": n, "unsynthesizable": m,
    "unbuilt": reason}`` summary; ``unbuilt`` says why no artifact was
    built (the backend is unavailable), else None.
    """
    from repro.backends import BackendUnavailableError, get_backend

    try:
        get_backend(backend).require()
        unbuilt = None
    except BackendUnavailableError as err:
        unbuilt = err.reason
    if pairs is None:
        pairs = _planner_pairs()
    jobs_list = [(a, b, backend, unbuilt is None) for a, b in pairs]
    ok = 0
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            for success, added in pool.map(_warm_pair, jobs_list):
                ok += success
                obs.METRICS.add_counts(added)
    else:
        for job in jobs_list:
            ok += _warm_pair(job)[0]
    return {
        "synthesized": ok,
        "unsynthesizable": len(jobs_list) - ok,
        "unbuilt": unbuilt,
    }


# ----------------------------------------------------------------------
# CI support: dump the unified telemetry snapshot at exit when asked to.
# ----------------------------------------------------------------------
def stats_file_payload() -> dict:
    """What ``REPRO_CACHE_STATS_FILE`` receives: the unified snapshot.

    ``repro stats`` and ``repro cache stats`` both read through
    :func:`repro.obs.unified_snapshot`, so the file reports the same
    numbers as the CLI.
    """
    return obs.unified_snapshot()


_stats_file = os.environ.get("REPRO_CACHE_STATS_FILE")
if _stats_file:  # pragma: no cover - exercised by the CI cache job

    @atexit.register
    def _dump_stats(path=_stats_file):
        try:
            _atomic_write_json(Path(path), stats_file_payload())
        except OSError:
            pass
