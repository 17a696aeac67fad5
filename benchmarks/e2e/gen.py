"""Seeded input generators and source builders for the end-to-end benchmark.

The benchmark owns its inputs: nothing here imports :mod:`repro.datagen`,
so a change to the package's own generators cannot change the workload.
Matrices are drawn with numpy from one ``numpy.random.Generator`` per
input, returned as lexicographically sorted, duplicate-free triplets, and
turned into runtime containers only through the public constructors —
never through ``convert()``, which would warm the caches set-up measures.

The families mirror the paper's Table 3/4 inputs at benchmark scale:

* ``uniform``  — unstructured scatter,
* ``banded``   — the jnlbrng1 5-point stencil (offsets 0, ±1, ±spread),
* ``powerlaw`` — scircuit-like skewed row degrees (row = n * u**2),
* ``tensor3d`` — fb-m-like interaction tensor with skewed slice occupancy.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

#: The C tier's 3-D Morton key holds 20 bits per mode (62-bit key).
MAX_MODE_3D = 1 << 20


class Triplets(NamedTuple):
    """A sparse input as sorted coordinate columns plus its shape."""

    shape: tuple[int, ...]
    coords: tuple[np.ndarray, ...]
    val: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.val.size)


def _sorted_unique(coords) -> list[np.ndarray]:
    """Coordinate columns sorted lexicographically, duplicates dropped."""
    coords = [np.asarray(c, dtype=np.int64) for c in coords]
    order = np.lexsort(tuple(reversed(coords)))
    coords = [c[order] for c in coords]
    keep = np.ones(coords[0].size, dtype=bool)
    for c in coords:
        keep[1:] &= c[1:] == c[:-1]
    keep[1:] = ~keep[1:]
    return [c[keep] for c in coords]


def _finish(shape, coords, rng) -> Triplets:
    coords = _sorted_unique(coords)
    val = rng.uniform(0.5, 2.0, size=coords[0].size)
    return Triplets(tuple(int(s) for s in shape), tuple(coords), val)


def _draw_unique(shape, nnz, draw, rng) -> Triplets:
    """Draw coordinates with ``draw(rng, k)`` until ``nnz`` distinct ones.

    Duplicates are dropped and the draw is topped up; the surplus is cut
    by a seeded subsample so the count is exact.
    """
    coords = [np.empty(0, dtype=np.int64) for _ in shape]
    while coords[0].size < nnz:
        extra = draw(rng, nnz - coords[0].size + nnz // 8 + 16)
        coords = _sorted_unique(
            [np.concatenate(pair) for pair in zip(coords, extra)]
        )
    pick = np.sort(rng.choice(coords[0].size, size=nnz, replace=False))
    return _finish(shape, [c[pick] for c in coords], rng)


def uniform(n: int, nnz: int, rng: np.random.Generator) -> Triplets:
    """``nnz`` distinct coordinates scattered uniformly over ``n x n``."""
    return _draw_unique(
        (n, n),
        nnz,
        lambda r, k: (r.integers(0, n, k), r.integers(0, n, k)),
        rng,
    )


def banded(n: int, nnz_per_row: float, rng: np.random.Generator) -> Triplets:
    """The jnlbrng1 family: a 5-point stencil thinned to ``nnz_per_row``.

    Offsets are 0, ±1 and ±spread with ``spread = min(sqrt(n), n // 7)``,
    the discretization shape of the Table 3 banded matrices.
    """
    spread = max(2, min(int(n**0.5), n // 7))
    density = min(1.0, nnz_per_row / 5)
    rows, cols = [], []
    for off in (-spread, -1, 0, 1, spread):
        i = np.arange(max(0, -off), min(n, n - off), dtype=np.int64)
        i = i[rng.random(i.size) < density]
        rows.append(i)
        cols.append(i + off)
    return _finish((n, n), [np.concatenate(rows), np.concatenate(cols)], rng)


def powerlaw(n: int, nnz: int, rng: np.random.Generator) -> Triplets:
    """The scircuit family: row ``floor(n * u**2)``, uniform column."""

    def draw(r, k):
        i = np.minimum((n * r.random(k) ** 2).astype(np.int64), n - 1)
        return i, r.integers(0, n, k)

    return _draw_unique((n, n), nnz, draw, rng)


def tensor3d(
    dims: tuple[int, int, int], nnz: int, rng: np.random.Generator
) -> Triplets:
    """The fb-m family: heavy low-index slices in the first two modes
    (index ``floor(d * u**1.5)``), uniform third mode."""
    if max(dims) > MAX_MODE_3D:
        raise ValueError(f"mode sizes {dims} exceed {MAX_MODE_3D}")
    d0, d1, d2 = dims

    def draw(r, k):
        i = np.minimum((d0 * r.random(k) ** 1.5).astype(np.int64), d0 - 1)
        j = np.minimum((d1 * r.random(k) ** 1.5).astype(np.int64), d1 - 1)
        return i, j, r.integers(0, d2, k)

    return _draw_unique(dims, nnz, draw, rng)


# ----------------------------------------------------------------------
# Source containers, built from the triplets through public constructors.
# ----------------------------------------------------------------------
def coo(t: Triplets):
    from repro import COOMatrix

    return COOMatrix(*t.shape, t.coords[0].tolist(), t.coords[1].tolist(),
                     t.val.tolist())


def shuffled_coo(t: Triplets, rng: np.random.Generator):
    from repro import COOMatrix

    p = rng.permutation(t.nnz)
    return COOMatrix(*t.shape, t.coords[0][p].tolist(),
                     t.coords[1][p].tolist(), t.val[p].tolist())


def mcoo(t: Triplets):
    from repro import MortonCOOMatrix

    return MortonCOOMatrix.from_coo(coo(t))


def _rowptr(index: np.ndarray, n: int) -> list:
    return np.concatenate(
        ([0], np.cumsum(np.bincount(index, minlength=n)))
    ).tolist()


def csr(t: Triplets):
    from repro import CSRMatrix

    row, col = t.coords
    return CSRMatrix(*t.shape, _rowptr(row, t.shape[0]), col.tolist(),
                     t.val.tolist())


def csc(t: Triplets):
    from repro.runtime import CSCMatrix

    row, col = t.coords
    order = np.lexsort((row, col))
    return CSCMatrix(*t.shape, _rowptr(col[order], t.shape[1]),
                     row[order].tolist(), t.val[order].tolist())


def dia(t: Triplets):
    from repro import DIAMatrix

    row, col = t.coords
    offsets, slot = np.unique(col - row, return_inverse=True)
    nd = offsets.size
    data = np.zeros(t.shape[0] * nd)
    data[row * nd + slot] = t.val
    return DIAMatrix(*t.shape, offsets.tolist(), data.tolist())


def ell(t: Triplets):
    from repro import ELLMatrix

    row, col = t.coords
    nrows = t.shape[0]
    counts = np.bincount(row, minlength=nrows)
    width = int(counts.max(initial=0))
    # Rank of each entry within its (sorted) row.
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    slot = row * width + (np.arange(row.size) - starts[row])
    cols = np.full(nrows * width, ELLMatrix.PAD, dtype=np.int64)
    vals = np.zeros(nrows * width)
    cols[slot] = col
    vals[slot] = t.val
    return ELLMatrix(*t.shape, width, cols.tolist(), vals.tolist())


def bcsr(t: Triplets):
    """BCSR with the library's default 2x2 blocks."""
    from repro import BCSRMatrix

    bsize = 2
    row, col = t.coords
    nrows, ncols = t.shape
    nbr = -(-nrows // bsize)
    nbc = -(-ncols // bsize)
    block = (row // bsize) * nbc + col // bsize
    blocks, which = np.unique(block, return_inverse=True)
    data = np.zeros(blocks.size * bsize * bsize)
    data[which * bsize * bsize + (row % bsize) * bsize + col % bsize] = t.val
    return BCSRMatrix(nrows, ncols, bsize, _rowptr(blocks // nbc, nbr),
                      (blocks % nbc).tolist(), data.tolist())


def coo3d(t: Triplets):
    from repro import COOTensor3D

    return COOTensor3D(t.shape, *(c.tolist() for c in t.coords),
                       t.val.tolist())


def shuffled_coo3d(t: Triplets, rng: np.random.Generator):
    from repro import COOTensor3D

    p = rng.permutation(t.nnz)
    return COOTensor3D(t.shape, *(c[p].tolist() for c in t.coords),
                       t.val[p].tolist())


def mcoo3(t: Triplets):
    from repro import MortonCOOTensor3D

    return MortonCOOTensor3D.from_coo(coo3d(t))


def csf(t: Triplets):
    from repro.runtime import CSFTensor

    return CSFTensor.from_coo(coo3d(t))
