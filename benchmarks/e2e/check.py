"""Output checks: containers against the generated entries and each other.

``entries`` reads any source or destination container back into sorted
coordinate columns and values with numpy, so a 199k-nnz output is checked
without a dense image.  Explicit zeros (DIA padding, BCSR block fill, ELL
padding) are dropped: the generators never draw a zero value.
"""

from __future__ import annotations

import numpy as np


def _expand(ptr, n: int) -> np.ndarray:
    """The outer index of every stored position of a compressed level."""
    return np.repeat(np.arange(n, dtype=np.int64), np.diff(np.asarray(ptr)))


def _ints(xs) -> np.ndarray:
    return np.asarray(xs, dtype=np.int64)


def _floats(xs) -> np.ndarray:
    return np.asarray(xs, dtype=np.float64)


def _arrays(container) -> tuple[list[np.ndarray], np.ndarray]:
    from repro import (
        BCSRMatrix,
        COOMatrix,
        COOTensor3D,
        CSCMatrix,
        CSRMatrix,
        DIAMatrix,
        ELLMatrix,
    )
    from repro.runtime import CSFTensor

    c = container
    if isinstance(c, COOMatrix):  # MortonCOOMatrix too
        return [_ints(c.row), _ints(c.col)], _floats(c.val)
    if isinstance(c, COOTensor3D):  # MortonCOOTensor3D too
        return [_ints(c.row), _ints(c.col), _ints(c.z)], _floats(c.val)
    if isinstance(c, CSRMatrix):
        return [_expand(c.rowptr, c.nrows), _ints(c.col)], _floats(c.val)
    if isinstance(c, CSCMatrix):
        return [_ints(c.row), _expand(c.colptr, c.ncols)], _floats(c.val)
    if isinstance(c, DIAMatrix):
        nd = c.ndiags
        i = np.repeat(np.arange(c.nrows, dtype=np.int64), nd)
        j = i + np.tile(_ints(c.off), c.nrows)
        val = _floats(c.data)
        inside = (j >= 0) & (j < c.ncols)
        return [i[inside], j[inside]], val[inside]
    if isinstance(c, ELLMatrix):
        col = _ints(c.col)
        i = np.repeat(np.arange(c.nrows, dtype=np.int64), c.width)
        used = col != c.PAD
        return [i[used], col[used]], _floats(c.val)[used]
    if isinstance(c, BCSRMatrix):
        bs = c.bsize
        per = bs * bs
        brow = _expand(c.browptr, c.nblockrows)
        slot = np.arange(len(c.data), dtype=np.int64)
        block = slot // per
        i = brow[block] * bs + (slot % per) // bs
        j = _ints(c.bcol)[block] * bs + slot % bs
        inside = (i < c.nrows) & (j < c.ncols)
        return [i[inside], j[inside]], _floats(c.data)[inside]
    if isinstance(c, CSFTensor):
        fiber_root = _expand(c.fptr, c.nroots)
        entry_fiber = _expand(c.kptr, c.nfibers)
        i = _ints(c.rootidx)[fiber_root][entry_fiber]
        j = _ints(c.fibidx)[entry_fiber]
        return [i, j, _ints(c.kidx)], _floats(c.val)
    raise TypeError(f"no entry reader for {type(c).__name__}")


def entries(container) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Sorted coordinate columns and values of the nonzero entries."""
    coords, val = _arrays(container)
    keep = val != 0.0
    coords = [col[keep] for col in coords]
    val = val[keep]
    order = np.lexsort(tuple(reversed(coords)))
    return tuple(col[order] for col in coords), val[order]


def same_entries(container, triplets) -> bool:
    """Whether ``container`` holds exactly the generated entries."""
    coords, val = entries(container)
    return (
        len(coords) == len(triplets.coords)
        and all(
            np.array_equal(a, b) for a, b in zip(coords, triplets.coords)
        )
        and np.array_equal(val, triplets.val)
    )


def same_output(result, oracle) -> bool:
    """Field-for-field equality of two containers of the same class."""
    return type(result) is type(oracle) and vars(result) == vars(oracle)
