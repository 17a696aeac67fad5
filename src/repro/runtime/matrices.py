"""Sparse matrix containers for every 2-D format in the paper (Figure 1).

Each class is a declaration (:class:`~.container.Layout`): which of its
attributes fills which level of its format's composition.  Everything
else — typed construction, ``check()``, ``repr``, the bind to the UF
environment, the pack from inspector outputs and the dense round trip —
is derived from it (:class:`~.container.LevelContainer`).

Index fields are ``array('q')`` and value fields ``array('d')``
(:mod:`.storage`): the gate, the format binding and the numpy and C tiers
read those buffers in place, and a constructor copies what the caller
passes, rejecting an index that is not an int64 with a named
:class:`~repro.errors.ValidationError`.
"""

from __future__ import annotations

from .container import Layout, LevelContainer

MATRIX = ("nrows", "ncols")


class COOMatrix(LevelContainer):
    """Coordinate format: parallel ``row`` / ``col`` / ``val`` arrays."""

    format_name = "COO"
    layout = Layout(
        shape=MATRIX,
        levels=({"coord": "row"}, {"coord": "col"}),
        values="val",
        sorted_format="SCOO",
    )


class MortonCOOMatrix(COOMatrix):
    """COO sorted by the Morton (Z-order) key — the paper's MCOO."""

    format_name = "MCOO"


class CSRMatrix(LevelContainer):
    """Compressed sparse row: ``rowptr`` (len nrows+1), ``col``, ``val``."""

    format_name = "CSR"
    layout = Layout(
        shape=MATRIX,
        levels=(None, {"ptr": "rowptr", "idx": "col"}),
        values="val",
    )


class CSCMatrix(LevelContainer):
    """Compressed sparse column: ``colptr`` (len ncols+1), ``row``, ``val``."""

    format_name = "CSC"
    layout = Layout(
        shape=MATRIX,
        levels=(None, {"ptr": "colptr", "idx": "row"}),
        values="val",
    )


class DIAMatrix(LevelContainer):
    """Diagonal format: sorted ``off`` array + row-major diagonal data.

    ``data`` is laid out exactly as the paper's data access relation
    ``kd = ND * ii + d`` prescribes: entry ``(ii, d)`` lives at
    ``data[ND * ii + d]``.  Positions falling outside the matrix are
    explicit (padding) zeros.
    """

    format_name = "DIA"
    layout = Layout(
        shape=MATRIX,
        levels=(None, {"idx": "off"}),
        values="data",
        summary="ndiags={c.ndiags}",
    )

    @property
    def ndiags(self) -> int:
        return len(self.off)


class BCSRMatrix(LevelContainer):
    """Blocked CSR with dense ``bsize`` x ``bsize`` blocks (Figure 1's BCSR).

    ``browptr``/``bcol`` compress the block rows; each block stores its
    ``bsize * bsize`` entries row-major in ``data``.
    """

    format_name = "BCSR"
    layout = Layout(
        shape=MATRIX,
        levels=({"block": "bsize"}, {"ptr": "browptr", "idx": "bcol"}),
        values="data",
        summary="bsize={c.bsize}, nblocks={c.nblocks}",
    )

    @property
    def nblockrows(self) -> int:
        return -(-self.nrows // self.bsize)

    @property
    def nblocks(self) -> int:
        return len(self.bcol)


class ELLMatrix(LevelContainer):
    """ELLPACK: fixed entries-per-row with column padding (extension format).

    ``from_dense(dense, width)`` pads beyond the natural (longest-row)
    width — the fuzzer uses this to exercise inspectors on over-allocated
    ELL sources.  It must not truncate: below the natural width rows
    would silently drop entries, so that raises instead.
    """

    format_name = "ELL"
    layout = Layout(
        shape=MATRIX,
        levels=(None, {"width": "width", "idx": "col"}),
        values="val",
        summary="width={c.width}",
    )

    PAD = -1


class DCSRMatrix(LevelContainer):
    """Doubly compressed sparse row: empty rows elided (extension format).

    ``rowidx`` lists the populated rows strictly increasing; ``dptr``
    (len ``len(rowidx) + 1``) delimits each populated row's strictly
    increasing ``dcol`` segment.
    """

    format_name = "DCSR"
    layout = Layout(
        shape=MATRIX,
        levels=({"idx": "rowidx"}, {"ptr": "dptr", "idx": "dcol"}),
        values="val",
        summary="ndrows={c.ndrows}, nnz={c.nnz}",
    )

    @property
    def ndrows(self) -> int:
        """Number of populated rows."""
        return len(self.rowidx)


class BCSCMatrix(LevelContainer):
    """Blocked CSC: BCSR's column-major mirror (extension format).

    ``bcolptr``/``brow`` compress the block columns; each block stores
    its ``bsize * bsize`` entries row-major in ``data`` (the same
    within-block layout as BCSR, whatever the block traversal order).
    """

    format_name = "BCSC"
    layout = Layout(
        shape=MATRIX,
        levels=({"block": "bsize"}, {"ptr": "bcolptr", "idx": "brow"}),
        values="data",
        summary="bsize={c.bsize}, nblocks={c.nblocks}",
    )

    @property
    def nblockcols(self) -> int:
        return -(-self.ncols // self.bsize)

    @property
    def nblocks(self) -> int:
        return len(self.brow)


def dense_equal(a: list, b: list, tol: float = 0.0) -> bool:
    """Elementwise dense comparison used throughout the tests."""
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for x, y in zip(ra, rb):
            if abs(x - y) > tol:
                return False
    return True
