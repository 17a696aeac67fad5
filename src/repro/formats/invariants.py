"""Vectorized structural checks derived from a level composition.

:meth:`repro.formats.levels.Composition.check` dispatches here, one
checker per level family.  Each reads the format's invariants off its
levels — array lengths against size symbols, UF ranges, pointer
endpoints and monotonicity, per-segment strict order and uniqueness,
``-1`` padding, and the lexicographic or Morton ordering key — and tests
them as whole-array numpy passes over the environment
:meth:`~repro.formats.levels.Composition.env_from_arrays` builds.

Three rules hold for every checker:

* **Same first violation.**  The error raised is the one a sequential
  audit of the container (outer level first, positions in storage
  order) meets first, with its evidence: the ``coordinate``,
  ``position`` or ``positions`` of the offending entry.  Equal adjacent
  indices of an ordered level raise :class:`DuplicateCoordinateError`.
* **Fast on valid input.**  Valid input costs a constant number of
  whole-array passes plus at most one ``np.sort`` — none when the
  linearized coordinate key is already strictly increasing.  The exact
  first-violation search (stable sorts, segment lookups) runs only once
  a violation is known to exist.
* **No overflow.**  An index too large for int64 is kept as an exact
  Python int (an object array) and reported as out of bounds, never as
  an ``OverflowError``; linearized keys stay below :data:`KEY_LIMIT`,
  and wider shapes compare coordinate columns with ``np.lexsort``.
"""

from __future__ import annotations

from array import array
from typing import Mapping, Sequence

import numpy as np

from repro.errors import (
    BoundsError,
    DuplicateCoordinateError,
    ShapeError,
    StructureError,
    UnsortedInputError,
)
from repro.runtime.morton import morton_vec
from repro.runtime.storage import INDEX, as_ndarray

#: Linearized coordinate keys are only formed below this bound.
KEY_LIMIT = 1 << 62


# ----------------------------------------------------------------------
# Array helpers


def _ints(seq) -> np.ndarray:
    """``seq`` as an int64 array; exact object array if a value overflows.

    A container's ``array('q')`` field is read in place, without a copy.
    """
    if isinstance(seq, array) and seq.typecode == INDEX:
        return as_ndarray(seq, INDEX)
    if isinstance(seq, np.ndarray) and seq.dtype == np.int64:
        return seq
    try:
        return np.fromiter(seq, dtype=np.int64, count=len(seq))
    except OverflowError:
        return np.array(list(seq), dtype=object)


def _int64(arr: np.ndarray) -> np.ndarray:
    """An array already known to fit in int64, as int64."""
    return arr.astype(np.int64) if arr.dtype == object else arr


def _first(mask: np.ndarray) -> int | None:
    """Index of the first true entry of a boolean mask, or ``None``."""
    if mask.size == 0:
        return None
    q = int(mask.argmax())
    return q if mask[q] else None


def _first_outside(arr: np.ndarray, lo: int, hi: int) -> int | None:
    """First position whose value lies outside ``lo <= x < hi``."""
    if arr.size == 0 or (arr.min() >= lo and arr.max() < hi):
        return None
    return _first((arr < lo) | (arr >= hi))


def _first_nonincreasing(idx: np.ndarray, ptr=None) -> int | None:
    """Second position of the first adjacent pair with ``a >= b``.

    With ``ptr``, pairs that straddle a segment boundary are exempt.
    """
    if idx.size < 2:
        return None
    bad = idx[1:] <= idx[:-1]
    if ptr is not None:
        starts = ptr[1:-1]
        starts = starts[(starts > 0) & (starts < idx.size)]
        bad[starts - 1] = False
    q = _first(bad)
    return None if q is None else q + 1


def _segment(ptr: np.ndarray, q: int) -> int:
    """The segment of ``ptr`` holding position ``q``."""
    return int(np.searchsorted(ptr, q, side="right")) - 1


def _first_descent(cols: Sequence[np.ndarray]) -> int | None:
    """First position whose coordinate tuple is below its predecessor's."""
    n = min(col.size for col in cols)
    if n < 2:
        return None
    below = np.zeros(n - 1, dtype=bool)
    tied = np.ones(n - 1, dtype=bool)
    for col in cols:
        after, before = col[1:n], col[: n - 1]
        below |= tied & (after < before)
        tied &= after == before
    q = _first(below)
    return None if q is None else q + 1


def _linear_key(cols: Sequence[np.ndarray], dims: Sequence[int]):
    """Row-major key of in-bounds columns, or ``None`` if it could overflow."""
    total = 1
    for d in dims:
        total *= max(int(d), 1)
    if total > KEY_LIMIT:
        return None
    key = cols[0]
    for col, d in zip(cols[1:], dims[1:]):
        key = key * int(d) + col
    return key


def _strictly_increasing(key: np.ndarray) -> bool:
    return key.size < 2 or bool((key[1:] > key[:-1]).all())


def _first_duplicate(cols: Sequence[np.ndarray], key) -> tuple[int, int] | None:
    """``(first, second)``: the earliest position repeating an earlier
    coordinate, and that earlier occurrence.

    One plain sort decides whether any coordinate repeats; only then a
    stable sort locates the repeat, so equal coordinates keep their
    storage order and the group's first member is its first occurrence.
    """
    n = cols[0].size
    if n < 2:
        return None
    if key is not None:
        srt = np.sort(key)
        if not (srt[1:] == srt[:-1]).any():
            return None
        order = np.argsort(key, kind="stable")
        same = key[order[1:]] == key[order[:-1]]
    else:
        order = np.lexsort(tuple(reversed(cols)))
        same = np.ones(n - 1, dtype=bool)
        for col in cols:
            same &= col[order[1:]] == col[order[:-1]]
        if not same.any():
            return None
    seconds = order[1:][same]
    k = int(seconds.argmin())
    return int(order[:-1][same][k]), int(seconds[k])


def _word(names: Mapping[str, str], uf: str) -> str:
    """What a message calls the array bound to ``uf``: the container's
    attribute name when the caller supplied one."""
    return names.get(uf, "values" if uf == "Asrc" else uf)


def _canonical(comp, by_dim: Mapping[str, object]) -> tuple:
    """A coordinate tuple in canonical dimension order (0 where unknown)."""
    return tuple(by_dim.get(d, 0) for d in comp.canonical_dims)


def _size(env: Mapping, dim: str) -> int:
    from .levels import DIM_SHAPE_SYM

    return int(env[DIM_SHAPE_SYM[dim]])


def _order_error(raw, q: int, what: str, where, context: str = "",
                 coordinate=None, positions=None):
    """The error for the pair ``(q - 1, q)`` of an ordered index array."""
    a, b = raw[q - 1], raw[q]
    if a == b:
        return DuplicateCoordinateError(
            f"duplicate {what} {a}{context}",
            coordinate=coordinate,
            positions=positions,
            container=where,
        )
    return UnsortedInputError(
        f"{what} not strictly increasing{context}: {a} before {b}",
        container=where,
    )


# ----------------------------------------------------------------------
# coord family (COO / SCOO / MCOO / COO3D / MCOO3 ...)


def _coord_columns(comp, env):
    from .levels import _coord_ufs_of

    ufs = _coord_ufs_of(comp)
    names = [ufs[d] for d in comp.dims]
    return names, [env[name] for name in names]


def check_coord(comp, env: Mapping, where: str | None, names) -> bool:
    """The coordinate family's checker; whether the entries strictly
    increase in lexicographic order, which names an unordered container's
    sorted form."""
    ufs, raw = _coord_columns(comp, env)
    nnz = len(env["Asrc"])
    if any(len(arr) != nnz for arr in raw):
        words = "/".join(_word(names, uf) for uf in ufs + ["Asrc"])
        lengths = "/".join(str(len(a)) for a in raw + [env["Asrc"]])
        raise ShapeError(
            f"{words} lengths differ ({lengths})", container=where
        )
    dims = [_size(env, d) for d in comp.dims]
    cols = [_ints(arr) for arr in raw]

    def coordinate(n):
        return _canonical(comp, {d: arr[n] for d, arr in zip(comp.dims, raw)})

    # A sequential audit meets, at each position in turn, an index out
    # of bounds or a repeat of an earlier (in-bounds) coordinate.
    oob = min(
        (q for col, d in zip(cols, dims)
         if (q := _first_outside(col, 0, d)) is not None),
        default=None,
    )
    end = nnz if oob is None else oob
    prefix = [_int64(col[:end]) for col in cols]
    key = _linear_key(prefix, dims)
    ordered = key is not None and _strictly_increasing(key)
    if not ordered:
        dup = _first_duplicate(prefix, key)
        if dup is not None:
            coord = coordinate(dup[1])
            raise DuplicateCoordinateError(
                f"coordinate {coord} stored at positions {dup[0]} and "
                f"{dup[1]}",
                coordinate=coord,
                positions=dup,
                container=where,
            )
    if oob is not None:
        coord = coordinate(oob)
        shape = "x".join(str(_size(env, d)) for d in comp.canonical_dims)
        raise BoundsError(
            f"coordinate {coord} at position {oob} is outside {shape}",
            coordinate=coord,
            position=oob,
            container=where,
        )
    ordering = comp._resolved_ordering()
    if ordering == "lex" and not ordered:
        position = _first_descent(prefix)
    elif ordering == "morton":
        keys = morton_vec(*prefix)
        q = _first(keys[1:] <= keys[:-1]) if keys.size > 1 else None
        position = None if q is None else q + 1
    else:
        position = None
    if position is not None:
        raise UnsortedInputError(
            f"entries not in strictly increasing {ordering} order at "
            f"position {position}",
            position=position,
            container=where,
        )
    # No coordinate repeats by now, so sorted is strictly sorted; a key
    # too wide to build leaves it to the columns.
    return ordered or ordering == "lex" or (
        key is None and _first_descent(prefix) is None
    )


def first_unsorted_position(comp, env: Mapping) -> int | None:
    """First position breaking lexicographic order in level order.

    Ties are allowed (the order is not strict) and nothing needs to be
    in bounds: adjacent coordinate tuples are compared column by column.
    """
    if comp.family != "coord":
        raise ValueError(
            f"{comp.name}: only coordinate formats have a storage order "
            f"to scan"
        )
    _, raw = _coord_columns(comp, env)
    return _first_descent([_ints(arr) for arr in raw])


# ----------------------------------------------------------------------
# Pointer levels shared by the compressed and blocked families


def _check_pointers(ptrs, where) -> list[np.ndarray]:
    """Lengths, endpoints, then monotonicity of every pointer array.

    ``ptrs`` holds ``(name, raw, segments, positions)`` per pointer
    level in level order: the array must have ``segments + 1`` entries
    running from 0 to ``positions``.  Returns the int64 pointer arrays.
    """
    for name, raw, segments, _ in ptrs:
        if len(raw) != segments + 1:
            raise ShapeError(
                f"{name} must have {segments + 1} entries, got {len(raw)}",
                container=where,
            )
    for name, raw, _, positions in ptrs:
        if raw[0] != 0 or raw[-1] != positions:
            raise StructureError(
                f"{name} must start at 0 and end at {positions}, got "
                f"[{raw[0]}, ..., {raw[-1]}]",
                container=where,
            )
    arrays = []
    for name, raw, _, _ in ptrs:
        ptr = _ints(raw)
        if ptr.size > 1 and (ptr[1:] < ptr[:-1]).any():
            raise StructureError(
                f"{name} must be non-decreasing", container=where
            )
        arrays.append(_int64(ptr))
    return arrays


def _segment_audit(ptr, child, hi, *, nonempty=False, parent=None,
                   parent_hi=None, child_bounds=True):
    """The first violation of a loop over the segments of ``ptr``.

    Per segment ``p`` in order the audit checks: the parent index itself
    (``parent``, against ``parent_hi``), that the segment is non-empty,
    that its ``child`` indices are in ``[0, hi)``, and that they
    strictly increase.  Returns ``(kind, segment, position)`` with kind
    ``"parent"``, ``"empty"``, ``"bounds"`` or ``"order"``, or ``None``.
    """
    found = []
    if parent is not None:
        p = _first_outside(parent, 0, parent_hi)
        if p is not None:
            found.append((p, 0, "parent", p))
    if nonempty:
        p = _first(ptr[1:] == ptr[:-1])
        if p is not None:
            found.append((p, 1, "empty", None))
    if child_bounds:
        q = _first_outside(child, 0, hi)
        if q is not None:
            found.append((_segment(ptr, q), 2, "bounds", q))
    q = _first_nonincreasing(child, ptr)
    if q is not None:
        found.append((_segment(ptr, q), 3, "order", q))
    if not found:
        return None
    p, _, kind, q = min(found, key=lambda f: f[:2])
    return kind, p, q


def _unflatten(flat: int, sizes: Sequence[int]) -> list[int]:
    """Row-major digits of ``flat`` over ``sizes``."""
    digits = []
    for size in reversed(sizes):
        digits.append(flat % size if size else 0)
        flat = flat // size if size else 0
    return digits[::-1]


# ----------------------------------------------------------------------
# compressed family (CSR / CSC / DCSR / CSF ...)


def check_compressed(comp, env: Mapping, where: str | None, names) -> None:
    from .levels import _compressed_names

    level_names = _compressed_names(comp)
    values = env["Asrc"]
    dense = [lv for lv in comp.levels if lv.kind == "dense"]
    dense_sizes = [_size(env, lv.dim) for lv in dense]
    chain = [
        (lv, level_names[x]) for x, lv in enumerate(comp.levels)
        if lv.kind == "compressed"
    ]
    raw = [env[entry["idx"]] for _, entry in chain]
    last = len(chain) - 1

    ptrs = []
    for c, (_, entry) in enumerate(chain):
        if "ptr" not in entry:
            continue
        segments = (
            int(np.prod(dense_sizes, dtype=object)) if c == 0
            else len(raw[c - 1])
        )
        positions = len(values) if c == last else len(raw[c])
        ptrs.append((_word(names, entry["ptr"]), env[entry["ptr"]],
                     segments, positions))
    ptr_arrays = _check_pointers(ptrs, where)
    words = [_word(names, entry["idx"]) for _, entry in chain]
    if len(raw[last]) != len(values):
        raise ShapeError(
            f"{words[last]}/{_word(names, 'Asrc')} lengths differ "
            f"({len(raw[last])}/{len(values)})",
            container=where,
        )
    ptr = dict(zip((c for c, (_, e) in enumerate(chain) if "ptr" in e),
                   ptr_arrays))
    idx = [_ints(arr) for arr in raw]
    his = [_size(env, lv.dim) for lv, _ in chain]

    if comp.rank >= 3 and len(chain) >= 2:
        _audit_levels(comp, chain, raw, idx, ptr, his, words, where)
    else:
        _audit_tuples(comp, chain, raw, idx, ptr, his, dense, dense_sizes,
                      words, where)


def _audit_tuples(comp, chain, raw, idx, ptr, his, dense, dense_sizes,
                  words, where):
    """Rank-2 chains and single compressed levels: errors name the dense
    coordinate tuple (CSR, CSC, DCSR).  A root level is audited as a
    whole — bounds, then order — before the loop over its segments."""
    if len(chain) == 2:
        root_dim = chain[0][0].dim
        q = _first_outside(idx[0], 0, his[0])
        if q is not None:
            coord = _canonical(comp, {root_dim: raw[0][q]})
            raise BoundsError(
                f"{words[0]} index {raw[0][q]} out of bounds",
                coordinate=coord,
                container=where,
            )
        q = _first_nonincreasing(idx[0])
        if q is not None:
            raise _order_error(
                raw[0], q, f"{words[0]} index", where,
                coordinate=_canonical(comp, {root_dim: raw[0][q]}),
            )

        def outer(p):
            return {root_dim: raw[0][p]}
    else:
        def outer(p):
            digits = _unflatten(p, dense_sizes)
            return {lv.dim: x for lv, x in zip(dense, digits)}

    c = len(chain) - 1
    dim = chain[c][0].dim
    found = _segment_audit(ptr[c], idx[c], his[c], nonempty=len(chain) == 2)
    if found is None:
        return
    kind, p, q = found
    if kind == "empty":
        raise StructureError(
            f"segment {p} of {words[c]} stores no entries", container=where
        )
    coord = _canonical(comp, {**outer(p), dim: raw[c][q]})
    if kind == "bounds":
        raise BoundsError(
            f"{words[c]} index {raw[c][q]} out of bounds at {coord}",
            coordinate=coord,
            container=where,
        )
    raise _order_error(
        raw[c], q, f"{words[c]} index", where, f" in segment {p}",
        coordinate=coord,
    )


def _audit_levels(comp, chain, raw, idx, ptr, his, words, where):
    """Chains of rank 3 and up (CSF): errors name the level-local index
    and its position in that level's array.  A root level's order comes
    first; each level's own bounds are checked in the loop over it."""
    last = len(chain) - 1

    def order_error(c, q, context=""):
        return _order_error(
            raw[c], q, f"{words[c]} index", where, context,
            coordinate=raw[c][q], positions=(q - 1, q),
        )

    if 0 not in ptr:  # a root level
        q = _first_nonincreasing(idx[0])
        if q is not None:
            raise order_error(0, q)
    else:
        found = _segment_audit(ptr[0], idx[0], his[0], child_bounds=False)
        if found is not None:
            raise order_error(0, found[2], f" in segment {found[1]}")
    for c in range(last):
        found = _segment_audit(
            ptr[c + 1], idx[c + 1], his[c + 1], nonempty=True,
            parent=idx[c], parent_hi=his[c],
            child_bounds=c + 1 == last,
        )
        if found is None:
            continue
        kind, p, q = found
        if kind == "parent":
            raise BoundsError(
                f"{words[c]} index {raw[c][p]} out of bounds",
                coordinate=raw[c][p],
                position=p,
                container=where,
            )
        if kind == "empty":
            raise StructureError(
                f"{words[c]} position {p} has no {words[c + 1]} entries",
                container=where,
            )
        if kind == "bounds":
            raise BoundsError(
                f"{words[c + 1]} index {raw[c + 1][q]} out of bounds",
                coordinate=raw[c + 1][q],
                position=q,
                container=where,
            )
        raise order_error(c + 1, q, f" under {words[c]} position {p}")


# ----------------------------------------------------------------------
# blocked family (BCSR / BCSC)


def check_blocked(comp, env: Mapping, where: str | None, names) -> None:
    from .levels import _blocked_names

    nm = _blocked_names(comp)
    b = nm["b"]
    nb0 = -(-_size(env, nm["d0"]) // b)
    nb1 = -(-_size(env, nm["d1"]) // b)
    raw = env[nm["idx"]]
    word = _word(names, nm["idx"])
    nblocks = len(raw)
    (ptr,) = _check_pointers(
        [(_word(names, nm["ptr"]), env[nm["ptr"]], nb0, nblocks)], where
    )
    if len(env["Asrc"]) != nblocks * b * b:
        raise ShapeError(
            f"{_word(names, 'Asrc')} must hold {b}*{b} entries per block",
            container=where,
        )
    found = _segment_audit(ptr, _ints(raw), nb1)
    if found is None:
        return
    kind, p, q = found
    coord = _canonical(comp, {nm["d0"]: p, nm["d1"]: raw[q]})
    if kind == "bounds":
        raise BoundsError(
            f"{word} index {raw[q]} out of bounds at block {coord}",
            coordinate=coord,
            container=where,
        )
    raise _order_error(
        raw, q, f"{word} index", where, f" in block segment {p}",
        coordinate=coord,
    )


# ----------------------------------------------------------------------
# offset family (DIA)


def check_offset(comp, env: Mapping, where: str | None, names) -> None:
    base, level = comp.levels[0].dim, comp.levels[1]
    raw = env[level.uf]
    word = _word(names, level.uf)
    off = _ints(raw)
    q = _first_nonincreasing(off)
    if q is not None:
        raise _order_error(raw, q, f"{word} value", where)
    lo, hi = -_size(env, base), _size(env, level.dim)
    q = _first_outside(off, lo + 1, hi)
    if q is not None:
        raise BoundsError(
            f"{word} value {raw[q]} outside the valid range "
            f"({lo + 1} .. {hi - 1})",
            coordinate=raw[q],
            container=where,
        )
    expected = _size(env, base) * len(raw)
    if len(env["Asrc"]) != expected:
        raise ShapeError(
            f"{_word(names, 'Asrc')} must have {expected} entries, got "
            f"{len(env['Asrc'])}",
            container=where,
        )


# ----------------------------------------------------------------------
# padded family (ELL)


def check_padded(comp, env: Mapping, where: str | None, names) -> None:
    from .levels import PAD, _padded_uf

    base, level = comp.levels[0].dim, comp.levels[1]
    nbase, hi = _size(env, base), _size(env, level.dim)
    width = int(env[level.width])
    uf = _padded_uf(comp)
    raw = env[uf]
    word = _word(names, uf)
    expected = nbase * width
    if len(raw) != expected or len(env["Asrc"]) != expected:
        raise ShapeError(
            f"{word}/{_word(names, 'Asrc')} must have {expected} entries, "
            f"got {len(raw)}/{len(env['Asrc'])}",
            container=where,
        )
    if not expected:
        return
    col = _ints(raw)

    def coordinate(slot):
        return _canonical(comp, {base: slot // width, level.dim: raw[slot]})

    # Per base coordinate in order, each non-padding slot must be in
    # bounds and must not repeat an earlier slot of the same base.  The
    # padding sentinel is -1, so the valid range starts at it.
    oob = _first_outside(col, PAD, hi)
    end = expected if oob is None else oob
    slots = np.flatnonzero(_int64(col[:end]) != PAD)
    cols = [slots // width, _int64(col[:end])[slots]]
    key = _linear_key(cols, (nbase, hi))
    if key is None or not _strictly_increasing(key):
        dup = _first_duplicate(cols, key)
        if dup is not None:
            slot = int(slots[dup[1]])
            raise DuplicateCoordinateError(
                f"duplicate {word} index {raw[slot]} at {coordinate(slot)}",
                coordinate=coordinate(slot),
                container=where,
            )
    if oob is not None:
        raise BoundsError(
            f"{word} index {raw[oob]} out of bounds at {coordinate(oob)}",
            coordinate=coordinate(oob),
            container=where,
        )


CHECKERS = {
    "coord": check_coord,
    "compressed": check_compressed,
    "offset": check_offset,
    "padded": check_padded,
    "blocked": check_blocked,
}
