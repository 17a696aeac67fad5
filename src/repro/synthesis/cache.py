"""The synthesis memo: one synthesis per key per process.

Two layers make repeated synthesis cheap:

1. the hash-consed IR with memoized set/relation algebra (:mod:`repro.ir`),
2. a process-wide memo of :func:`synthesize` results, failures included,
   keyed on format fingerprints, options, the resolved pass pipeline and
   the backend (this module).  Threads missing on one key wait on that
   key's in-flight lock and are served the one synthesis it ran.

Nothing here is kept on disk: a fresh process synthesizes what it
converts.  The only generated code kept across processes is the C tier's
compiled libraries (:mod:`repro.backends.c_backend`), named by their
source text, which every process prints the same.  :func:`warm` builds
them ahead of time.

``REPRO_CACHE_STATS_FILE=path`` dumps the unified telemetry snapshot
(cache counters included) as JSON at process exit; CI reads it to count
the compiles a warm ran.
"""

from __future__ import annotations

import atexit
import hashlib
import json
import os
import threading
import time
from typing import Sequence

import repro.obs as obs
from repro.backends import DEFAULT_BACKEND
from repro.formats.descriptor import FormatDescriptor

from .conversion import SynthesisError, SynthesizedConversion
from .engine import PHASE_SECONDS, synthesize as _raw_synthesize

_MEMO_HIT = obs.counter("repro_cache_memo_hit_total", "synthesis memo hits")
_COALESCED = obs.counter(
    "repro_cache_coalesced_total",
    "lookups served a result another thread synthesized meanwhile",
)
_MISS = obs.counter("repro_cache_miss_total", "lookups that ran synthesis")
#: The counters :func:`cache_stats` reports.
_COUNTERS = (_MEMO_HIT, _COALESCED, _MISS)

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
# The cached synthesis entry point
# ----------------------------------------------------------------------
def synthesize_cached(
    src: FormatDescriptor,
    dst: FormatDescriptor,
    *,
    optimize: bool = True,
    binary_search: bool = False,
    name: str | None = None,
    backend: str = DEFAULT_BACKEND,
    disabled_passes: tuple[str, ...] = (),
) -> SynthesizedConversion:
    """:func:`repro.synthesis.synthesize` behind the process-wide memo.

    Results, :class:`SynthesisError` failures included, are memoized for
    the life of the process; concurrent misses on one key run one
    synthesis.

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
        # simultaneously all ran synthesis.  The one lock holder
        # synthesizes; everyone queued behind it lands on the re-check
        # below and is served the same result (the request coalescing
        # `repro serve` amortizes synthesis with).
        with _inflight_lock(key):
            cached = _MEMO.get(key)
            if cached is not None:
                _MEMO_HIT.inc()
                _COALESCED.inc()
                span.set(outcome="coalesced")
                if isinstance(cached, SynthesisError):
                    raise cached
                return cached

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
            if isinstance(conv, SynthesisError):
                raise conv
            return conv


def clear_memo() -> None:
    """Drop the in-process synthesis memo (mainly for tests)."""
    _MEMO.clear()


def cache_stats() -> dict:
    """The memo's size and the cache counters, for ``repro stats``."""
    return {
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


def _warm_pair(job: tuple[str, str, bool]) -> tuple[bool, dict]:
    """Synthesize one pair on the C tier and, when ``build`` is set,
    build the library its first call would load (worker-safe).  Returns
    whether the pair synthesizes, and the counts the job added."""
    from repro.backends import get_backend
    from repro.formats import get_format

    src, dst, build = job
    before = obs.METRICS.counts()
    try:
        conv = synthesize_cached(get_format(src), get_format(dst), backend="c")
    except SynthesisError:
        conv = None
    if conv is not None and build:
        get_backend("c").prepare(conv)
    return conv is not None, obs.METRICS.added_since(before)


def warm(
    *,
    jobs: int = 1,
    pairs: Sequence[tuple[str, str]] | None = None,
) -> dict:
    """Build the C library of every planner pair ahead of its first call,
    through the same path that call takes.

    ``jobs > 1`` fans the pairs out over worker processes and adds their
    counts (compiles, runtime-object builds) and build timings to this
    process's counters and histograms;
    the artifact store's locks make concurrent builds into one directory
    safe.  Returns a ``{"synthesized": n, "unsynthesizable": m,
    "unbuilt": reason}`` summary; ``unbuilt`` says why no library was
    built (the C tier is unavailable), else None.
    """
    from repro.backends import BackendUnavailableError, get_backend

    try:
        get_backend("c").require()
        unbuilt = None
    except BackendUnavailableError as err:
        unbuilt = err.reason
    if pairs is None:
        pairs = _planner_pairs()
    jobs_list = [(a, b, unbuilt is None) for a, b in pairs]
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
    """What ``REPRO_CACHE_STATS_FILE`` receives: the unified snapshot,
    the same document ``repro stats`` reads."""
    return obs.unified_snapshot()


_stats_file = os.environ.get("REPRO_CACHE_STATS_FILE")
if _stats_file:  # pragma: no cover - exercised by CI's warm step

    @atexit.register
    def _dump_stats(path=_stats_file):
        try:
            obs.atomic_write_text(path, json.dumps(stats_file_payload()))
        except OSError:
            pass
