"""NumPy runtime helpers referenced by vectorized inspector code.

The vectorized lowering backend (:mod:`repro.spf.codegen.vectorize`) emits
source that calls these helpers by their UPPERCASE names.  They encapsulate
the non-trivial vector idioms — segmented loop flattening, stable bucket
fill, permutation ranking — so the generated source stays short and each
idiom has one audited implementation.

All helpers preserve the scalar backend's semantics exactly:

* ``FILL_POS`` reproduces the stateful ``k = fill[b]; fill[b] = k + 1``
  pair: position = fill pointer + occurrence rank within the bucket.
* ``STABLE_POS`` reproduces :class:`~repro.runtime.ordered_list.OrderedList`
  rank lookups, including the dict's last-duplicate-wins collapse.
* ``DENSE_POS`` reproduces ``OrderedList(unique=True)`` dense key ranks.
* ``COUNT_POS`` reproduces
  :class:`~repro.runtime.ordered_list.LexBucketPermutation` positions
  (stable counting-sort rank by bucket).
"""

from __future__ import annotations

from repro._prof import PROF

from .storage import INDEX, VALUE, as_ndarray

try:
    import numpy as np
except ImportError:  # pragma: no cover - the reference image ships numpy
    np = None


def require_numpy() -> None:
    """Raise a clear error when the numpy backend is requested without numpy."""
    if np is None:  # pragma: no cover
        raise RuntimeError(
            "the 'numpy' lowering backend requires numpy; "
            "install numpy or use backend='python'"
        )


def ASARRAY_INT(values):
    """Index/coordinate column as an int64 array (empty-safe).

    A container's ``array('q')`` becomes a read-only view of its buffer.
    """
    return as_ndarray(values, INDEX)


def ASARRAY_FLOAT(values):
    """Data column as a float64 array (empty-safe).

    A container's ``array('d')`` becomes a read-only view of its buffer.
    """
    return as_ndarray(values, VALUE)


def BOOLMASK(n, cond):
    """A length-``n`` boolean mask from a (possibly scalar) condition."""
    mask = np.asarray(cond)
    if mask.ndim == 0:
        return np.full(n, bool(mask))
    return mask


def SEGMENTS(lo, hi, n=None):
    """Flatten ``for v in range(lo[s], hi[s] + 1)`` over all segments ``s``.

    Returns ``(lengths, inner)`` where ``lengths[s]`` is the (clipped
    non-negative) trip count of segment ``s`` and ``inner`` is the
    concatenation of each segment's inclusive range, in segment order —
    exactly the scalar nest's iteration sequence.  ``lo`` / ``hi`` may be
    scalars or arrays; with ``n`` given they broadcast to ``n`` segments
    without materializing intermediate arrays.
    """
    if n is not None:
        lo = np.broadcast_to(np.asarray(lo, dtype=np.int64), (n,))
        hi = np.broadcast_to(np.asarray(hi, dtype=np.int64), (n,))
    lengths = np.maximum(hi - lo + 1, 0)
    total = int(lengths.sum())
    if total == 0:
        return lengths, np.empty(0, dtype=np.int64)
    excl = np.cumsum(lengths) - lengths
    # inner[t] = lo[s] + (t - excl[s]) for t in segment s; one repeat of the
    # per-segment constant (lo - excl) beats repeating lo and excl apart.
    inner = np.arange(total, dtype=np.int64) + np.repeat(lo - excl, lengths)
    return lengths, inner


def _stable_order(buckets):
    """Indices that stably sort ``buckets`` ascending.

    ``np.argsort(kind="stable")`` has no radix path for int64 and dominates
    bucket-fill cost.  Packing each element's index into the low bits of a
    unique composite key makes ties impossible, so the (much faster) default
    sort yields exactly the stable order.  Falls back to stable argsort when
    the composite could overflow or buckets are negative.
    """
    n = buckets.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    shift = max(int(n - 1).bit_length(), 1)
    bmin = int(buckets.min())
    bmax = int(buckets.max())
    if bmin >= 0 and bmax < (1 << (62 - shift)):
        key = (buckets << shift) | np.arange(n, dtype=np.int64)
        return np.sort(key) & ((1 << shift) - 1)
    return np.argsort(buckets, kind="stable")


def _stable_rank(buckets):
    """Stable-sort rank of each element (inverse of :func:`_stable_order`)."""
    rank = np.empty(buckets.shape[0], dtype=np.int64)
    rank[_stable_order(buckets)] = np.arange(buckets.shape[0], dtype=np.int64)
    return rank


def FILL_POS(fill, buckets):
    """Vectorized stateful bucket fill: advance ``fill[b]`` per occurrence.

    Equivalent to running ``k = fill[b]; fill[b] = k + 1`` sequentially for
    every ``b`` in ``buckets`` and returning the ``k`` values; ``fill`` is
    updated in place with the per-bucket counts.
    """
    counts = np.bincount(buckets, minlength=fill.shape[0])
    rank = _stable_rank(buckets)
    excl = np.cumsum(counts) - counts
    if np.array_equal(fill, excl):
        # Counting-sort pattern: fill pointers start at the bucket offsets,
        # so the position is just the stable rank — skip both gathers.
        pos = rank
    else:
        pos = fill[buckets] + (rank - excl[buckets])
    fill += counts
    return pos


def COUNT_POS(buckets):
    """Stable counting-sort rank of each element by its bucket.

    Matches :class:`~repro.runtime.ordered_list.LexBucketPermutation`:
    position = start of the bucket + occurrence index within the bucket.
    """
    return _stable_rank(buckets)


def _group_ids_sorted(columns, order):
    """Group ids (0..g-1) of ``columns`` rows along sort ``order``."""
    n = order.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    boundary = np.zeros(n, dtype=bool)
    for col in columns:
        sorted_col = col[order]
        boundary[1:] |= sorted_col[1:] != sorted_col[:-1]
    return np.cumsum(boundary)


def STABLE_POS(keys, coords):
    """OrderedList positions: stable sort rank with last-duplicate-wins.

    ``keys`` are the sort key columns (primary first), ``coords`` the raw
    coordinate columns.  No keys (``key=None``) means insertion order.  The
    scalar ``OrderedList`` builds its rank dict by enumerating the sorted
    items, so identical coordinate tuples all map to the rank of their
    *last* occurrence in sorted order; this reproduces that collapse.
    """
    PROF.incr("npvec.stable_pos")
    n = coords[0].shape[0]
    rank = np.arange(n, dtype=np.int64)
    if keys:
        rank[np.lexsort(tuple(reversed(keys)))] = rank.copy()
    if n == 0:
        return rank
    # Collapse identical coordinate tuples to the max rank in their group.
    tuple_order = np.lexsort(tuple(reversed(coords)))
    gid = _group_ids_sorted(coords, tuple_order)
    group_max = np.full(int(gid[-1]) + 1, -1, dtype=np.int64)
    np.maximum.at(group_max, gid, rank[tuple_order])
    pos = np.empty(n, dtype=np.int64)
    pos[tuple_order] = group_max[gid]
    return pos


def DENSE_POS(keys):
    """``OrderedList(unique=True)`` positions: dense rank of distinct keys.

    Returns ``(positions, distinct_count)``; equal key tuples share a rank.
    """
    PROF.incr("npvec.dense_pos")
    n = keys[0].shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64), 0
    order = np.lexsort(tuple(reversed(keys)))
    gid = _group_ids_sorted(keys, order)
    pos = np.empty(n, dtype=np.int64)
    pos[order] = gid
    return pos, int(gid[-1]) + 1


def BSEARCH_V(arr, values):
    """Vectorized :func:`repro.runtime.executor.bsearch`: -1 when absent."""
    PROF.incr("npvec.bsearch_v")
    values = np.asarray(values)
    pos = np.searchsorted(arr, values)
    found = pos < arr.shape[0]
    # Guard the gather for out-of-range positions before comparing.
    probe = np.where(found, pos, 0)
    found &= arr[probe] == values
    return np.where(found, pos, -1)
