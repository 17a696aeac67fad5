"""Sparse matrix containers for every 2-D format in the paper (Figure 1).

These are plain-Python containers (lists, not numpy) so that synthesized
inspectors — which are interpreted Python loops — and the baseline
converters operate at the same abstraction level; relative performance
comparisons then reflect algorithmic differences, as in the paper.

Every container validates its structural invariants in :meth:`check` and
round-trips through a dense list-of-lists for correctness testing.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.errors import DenseMismatchError

from .morton import morton2

Dense = list  # list[list[float]]


def _dense_zeros(nrows: int, ncols: int) -> Dense:
    return [[0.0] * ncols for _ in range(nrows)]


def _bindings():
    """:mod:`repro.formats.bindings`, imported on first use (it imports
    this package)."""
    from repro.formats import bindings

    return bindings


class _ValidatedMatrix:
    """Shared validation surface for the 2-D containers."""

    def check(self) -> None:
        """Raise the first violation of the structural invariants.

        The invariants are not written per class: they are derived from
        the level composition the container binds to (bounds, duplicates,
        pointer endpoints and monotonicity, ordering) and checked with
        vectorized numpy passes — see
        :func:`repro.formats.bindings.check_container`.
        """
        _bindings().check_container(self)

    def check_against_dense(self, reference: Dense, *, tol: float = 0.0):
        """Validate invariants *and* compare the dense image to ``reference``.

        Raises :class:`~repro.errors.ValidationError` subclasses: structural
        violations surface from :meth:`check`, and the first differing cell
        surfaces as a :class:`~repro.errors.DenseMismatchError` naming the
        coordinate and both values.
        """
        self.check()
        actual = self.to_dense()
        if len(actual) != len(reference) or (
            actual and reference and len(actual[0]) != len(reference[0])
        ):
            raise DenseMismatchError(
                f"dense image is "
                f"{len(actual)}x{len(actual[0]) if actual else 0}, reference "
                f"is {len(reference)}x"
                f"{len(reference[0]) if reference else 0}",
                container=repr(self),
            )
        for i, (ra, rb) in enumerate(zip(actual, reference)):
            for j, (x, y) in enumerate(zip(ra, rb)):
                if abs(x - y) > tol:
                    raise DenseMismatchError(
                        f"dense image differs at ({i}, {j}): "
                        f"stored {x!r}, reference {y!r}",
                        coordinate=(i, j),
                        expected=y,
                        actual=x,
                        container=repr(self),
                    )


class COOMatrix(_ValidatedMatrix):
    """Coordinate format: parallel ``row`` / ``col`` / ``val`` arrays."""

    format_name = "COO"

    def __init__(
        self,
        nrows: int,
        ncols: int,
        row: Sequence[int],
        col: Sequence[int],
        val: Sequence[float],
    ):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.row = list(row)
        self.col = list(col)
        self.val = list(val)

    @property
    def nnz(self) -> int:
        return len(self.val)

    def is_sorted_lexicographic(self) -> bool:
        """Row-major sorted — the assumption Figure 2 makes for sources."""
        return self.first_unsorted_position() is None

    def first_unsorted_position(self) -> int | None:
        """Position of the first entry breaking lexicographic order.

        The cheap monotonicity scan the validation gate runs before
        trusting ``assume_sorted=True``; ``None`` when the data is sorted.
        """
        return _bindings().first_unsorted_position(self)

    def sorted_lexicographic(self) -> "COOMatrix":
        order = sorted(range(self.nnz), key=lambda n: (self.row[n], self.col[n]))
        return COOMatrix(
            self.nrows,
            self.ncols,
            [self.row[n] for n in order],
            [self.col[n] for n in order],
            [self.val[n] for n in order],
        )

    def to_dense(self) -> Dense:
        dense = _dense_zeros(self.nrows, self.ncols)
        for i, j, v in zip(self.row, self.col, self.val):
            dense[i][j] = v
        return dense

    @classmethod
    def from_dense(cls, dense: Dense) -> "COOMatrix":
        nrows = len(dense)
        ncols = len(dense[0]) if nrows else 0
        row, col, val = [], [], []
        for i in range(nrows):
            for j in range(ncols):
                if dense[i][j] != 0.0:
                    row.append(i)
                    col.append(j)
                    val.append(dense[i][j])
        return cls(nrows, ncols, row, col, val)

    def nonzeros(self) -> Iterator[tuple[int, int, float]]:
        return zip(self.row, self.col, self.val)

    def __repr__(self):
        return f"COOMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


class MortonCOOMatrix(COOMatrix):
    """COO sorted by the Morton (Z-order) key — the paper's MCOO."""

    format_name = "MCOO"

    @classmethod
    def from_coo(cls, coo: COOMatrix) -> "MortonCOOMatrix":
        order = sorted(
            range(coo.nnz), key=lambda n: morton2(coo.row[n], coo.col[n])
        )
        return cls(
            coo.nrows,
            coo.ncols,
            [coo.row[n] for n in order],
            [coo.col[n] for n in order],
            [coo.val[n] for n in order],
        )


class CSRMatrix(_ValidatedMatrix):
    """Compressed sparse row: ``rowptr`` (len nrows+1), ``col``, ``val``."""

    format_name = "CSR"

    def __init__(
        self,
        nrows: int,
        ncols: int,
        rowptr: Sequence[int],
        col: Sequence[int],
        val: Sequence[float],
    ):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.rowptr = list(rowptr)
        self.col = list(col)
        self.val = list(val)

    @property
    def nnz(self) -> int:
        return len(self.val)

    def to_dense(self) -> Dense:
        dense = _dense_zeros(self.nrows, self.ncols)
        for i in range(self.nrows):
            for k in range(self.rowptr[i], self.rowptr[i + 1]):
                dense[i][self.col[k]] = self.val[k]
        return dense

    @classmethod
    def from_dense(cls, dense: Dense) -> "CSRMatrix":
        nrows = len(dense)
        ncols = len(dense[0]) if nrows else 0
        rowptr = [0]
        col, val = [], []
        for i in range(nrows):
            for j in range(ncols):
                if dense[i][j] != 0.0:
                    col.append(j)
                    val.append(dense[i][j])
            rowptr.append(len(val))
        return cls(nrows, ncols, rowptr, col, val)

    def nonzeros(self) -> Iterator[tuple[int, int, float]]:
        for i in range(self.nrows):
            for k in range(self.rowptr[i], self.rowptr[i + 1]):
                yield i, self.col[k], self.val[k]

    def __repr__(self):
        return f"CSRMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


class CSCMatrix(_ValidatedMatrix):
    """Compressed sparse column: ``colptr`` (len ncols+1), ``row``, ``val``."""

    format_name = "CSC"

    def __init__(
        self,
        nrows: int,
        ncols: int,
        colptr: Sequence[int],
        row: Sequence[int],
        val: Sequence[float],
    ):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.colptr = list(colptr)
        self.row = list(row)
        self.val = list(val)

    @property
    def nnz(self) -> int:
        return len(self.val)

    def to_dense(self) -> Dense:
        dense = _dense_zeros(self.nrows, self.ncols)
        for j in range(self.ncols):
            for k in range(self.colptr[j], self.colptr[j + 1]):
                dense[self.row[k]][j] = self.val[k]
        return dense

    @classmethod
    def from_dense(cls, dense: Dense) -> "CSCMatrix":
        nrows = len(dense)
        ncols = len(dense[0]) if nrows else 0
        colptr = [0]
        row, val = [], []
        for j in range(ncols):
            for i in range(nrows):
                if dense[i][j] != 0.0:
                    row.append(i)
                    val.append(dense[i][j])
            colptr.append(len(val))
        return cls(nrows, ncols, colptr, row, val)

    def __repr__(self):
        return f"CSCMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


class DIAMatrix(_ValidatedMatrix):
    """Diagonal format: sorted ``off`` array + row-major diagonal data.

    ``data`` is laid out exactly as the paper's data access relation
    ``kd = ND * ii + d`` prescribes: entry ``(ii, d)`` lives at
    ``data[ND * ii + d]``.  Positions falling outside the matrix are
    explicit (padding) zeros.
    """

    format_name = "DIA"

    def __init__(
        self,
        nrows: int,
        ncols: int,
        off: Sequence[int],
        data: Sequence[float],
    ):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.off = list(off)
        self.data = list(data)

    @property
    def ndiags(self) -> int:
        return len(self.off)

    def to_dense(self) -> Dense:
        dense = _dense_zeros(self.nrows, self.ncols)
        nd = self.ndiags
        for i in range(self.nrows):
            for d in range(nd):
                j = i + self.off[d]
                if 0 <= j < self.ncols:
                    value = self.data[nd * i + d]
                    if value != 0.0:
                        dense[i][j] = value
        return dense

    @classmethod
    def from_dense(cls, dense: Dense) -> "DIAMatrix":
        nrows = len(dense)
        ncols = len(dense[0]) if nrows else 0
        offsets = sorted(
            {
                j - i
                for i in range(nrows)
                for j in range(ncols)
                if dense[i][j] != 0.0
            }
        )
        nd = len(offsets)
        data = [0.0] * (nrows * nd)
        for i in range(nrows):
            for d, off in enumerate(offsets):
                j = i + off
                if 0 <= j < ncols:
                    data[nd * i + d] = dense[i][j]
        return cls(nrows, ncols, offsets, data)

    def __repr__(self):
        return (
            f"DIAMatrix({self.nrows}x{self.ncols}, ndiags={self.ndiags})"
        )


class BCSRMatrix(_ValidatedMatrix):
    """Blocked CSR with dense ``bsize`` x ``bsize`` blocks (Figure 1's BCSR).

    ``browptr``/``bcol`` compress the block rows; each block stores its
    ``bsize * bsize`` entries row-major in ``data``.
    """

    format_name = "BCSR"

    def __init__(
        self,
        nrows: int,
        ncols: int,
        bsize: int,
        browptr: Sequence[int],
        bcol: Sequence[int],
        data: Sequence[float],
    ):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.bsize = int(bsize)
        self.browptr = list(browptr)
        self.bcol = list(bcol)
        self.data = list(data)

    @property
    def nblockrows(self) -> int:
        return -(-self.nrows // self.bsize)

    @property
    def nblocks(self) -> int:
        return len(self.bcol)

    def to_dense(self) -> Dense:
        dense = _dense_zeros(self.nrows, self.ncols)
        bs = self.bsize
        for bi in range(self.nblockrows):
            for bk in range(self.browptr[bi], self.browptr[bi + 1]):
                bj = self.bcol[bk]
                base = bk * bs * bs
                for r in range(bs):
                    for c in range(bs):
                        i = bi * bs + r
                        j = bj * bs + c
                        if i < self.nrows and j < self.ncols:
                            value = self.data[base + r * bs + c]
                            if value != 0.0:
                                dense[i][j] = value
        return dense

    @classmethod
    def from_dense(cls, dense: Dense, bsize: int) -> "BCSRMatrix":
        nrows = len(dense)
        ncols = len(dense[0]) if nrows else 0
        nbr = -(-nrows // bsize)
        nbc = -(-ncols // bsize)
        browptr = [0]
        bcol: list[int] = []
        data: list[float] = []
        for bi in range(nbr):
            for bj in range(nbc):
                block = []
                nonzero = False
                for r in range(bsize):
                    for c in range(bsize):
                        i, j = bi * bsize + r, bj * bsize + c
                        v = (
                            dense[i][j]
                            if i < nrows and j < ncols
                            else 0.0
                        )
                        nonzero = nonzero or v != 0.0
                        block.append(v)
                if nonzero:
                    bcol.append(bj)
                    data.extend(block)
            browptr.append(len(bcol))
        return cls(nrows, ncols, bsize, browptr, bcol, data)

    def __repr__(self):
        return (
            f"BCSRMatrix({self.nrows}x{self.ncols}, bsize={self.bsize}, "
            f"nblocks={self.nblocks})"
        )


class ELLMatrix(_ValidatedMatrix):
    """ELLPACK: fixed entries-per-row with column padding (extension format)."""

    format_name = "ELL"

    PAD = -1

    def __init__(
        self,
        nrows: int,
        ncols: int,
        width: int,
        col: Sequence[int],
        val: Sequence[float],
    ):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.width = int(width)
        self.col = list(col)
        self.val = list(val)

    def to_dense(self) -> Dense:
        dense = _dense_zeros(self.nrows, self.ncols)
        for i in range(self.nrows):
            for w in range(self.width):
                j = self.col[i * self.width + w]
                if j != self.PAD:
                    dense[i][j] = self.val[i * self.width + w]
        return dense

    @classmethod
    def from_dense(cls, dense: Dense, width: int | None = None) -> "ELLMatrix":
        """Build from a dense image.

        ``width`` pads beyond the natural (longest-row) width — the
        fuzzer uses this to exercise inspectors on over-allocated ELL
        sources.  It must not truncate: below the natural width rows
        would silently drop entries, so that raises instead.
        """
        nrows = len(dense)
        ncols = len(dense[0]) if nrows else 0
        per_row = [
            [(j, dense[i][j]) for j in range(ncols) if dense[i][j] != 0.0]
            for i in range(nrows)
        ]
        natural = max((len(r) for r in per_row), default=0)
        if width is None:
            width = natural
        elif width < natural:
            raise ValueError(
                f"width {width} below natural ELL width {natural}"
            )
        col, val = [], []
        for entries in per_row:
            for j, v in entries:
                col.append(j)
                val.append(v)
            for _ in range(width - len(entries)):
                col.append(cls.PAD)
                val.append(0.0)
        return cls(nrows, ncols, width, col, val)

    def __repr__(self):
        return f"ELLMatrix({self.nrows}x{self.ncols}, width={self.width})"


class DCSRMatrix(_ValidatedMatrix):
    """Doubly compressed sparse row: empty rows elided (extension format).

    ``rowidx`` lists the populated rows strictly increasing; ``dptr``
    (len ``len(rowidx) + 1``) delimits each populated row's strictly
    increasing ``dcol`` segment.
    """

    format_name = "DCSR"

    def __init__(
        self,
        nrows: int,
        ncols: int,
        rowidx: Sequence[int],
        dptr: Sequence[int],
        dcol: Sequence[int],
        val: Sequence[float],
    ):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.rowidx = list(rowidx)
        self.dptr = list(dptr)
        self.dcol = list(dcol)
        self.val = list(val)

    @property
    def nnz(self) -> int:
        return len(self.val)

    @property
    def ndrows(self) -> int:
        """Number of populated rows."""
        return len(self.rowidx)

    def to_dense(self) -> Dense:
        dense = _dense_zeros(self.nrows, self.ncols)
        for p, i in enumerate(self.rowidx):
            for k in range(self.dptr[p], self.dptr[p + 1]):
                dense[i][self.dcol[k]] = self.val[k]
        return dense

    @classmethod
    def from_dense(cls, dense: Dense) -> "DCSRMatrix":
        nrows = len(dense)
        ncols = len(dense[0]) if nrows else 0
        rowidx, dptr, dcol, val = [], [0], [], []
        for i in range(nrows):
            entries = [
                (j, dense[i][j]) for j in range(ncols) if dense[i][j] != 0.0
            ]
            if not entries:
                continue
            rowidx.append(i)
            for j, v in entries:
                dcol.append(j)
                val.append(v)
            dptr.append(len(val))
        return cls(nrows, ncols, rowidx, dptr, dcol, val)

    def nonzeros(self) -> Iterator[tuple[int, int, float]]:
        for p, i in enumerate(self.rowidx):
            for k in range(self.dptr[p], self.dptr[p + 1]):
                yield i, self.dcol[k], self.val[k]

    def __repr__(self):
        return (
            f"DCSRMatrix({self.nrows}x{self.ncols}, "
            f"ndrows={self.ndrows}, nnz={self.nnz})"
        )


class BCSCMatrix(_ValidatedMatrix):
    """Blocked CSC: BCSR's column-major mirror (extension format).

    ``bcolptr``/``brow`` compress the block columns; each block stores
    its ``bsize * bsize`` entries row-major in ``data`` (the same
    within-block layout as BCSR, whatever the block traversal order).
    """

    format_name = "BCSC"

    def __init__(
        self,
        nrows: int,
        ncols: int,
        bsize: int,
        bcolptr: Sequence[int],
        brow: Sequence[int],
        data: Sequence[float],
    ):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.bsize = int(bsize)
        self.bcolptr = list(bcolptr)
        self.brow = list(brow)
        self.data = list(data)

    @property
    def nblockcols(self) -> int:
        return -(-self.ncols // self.bsize)

    @property
    def nblocks(self) -> int:
        return len(self.brow)

    def to_dense(self) -> Dense:
        dense = _dense_zeros(self.nrows, self.ncols)
        bs = self.bsize
        for bj in range(self.nblockcols):
            for bk in range(self.bcolptr[bj], self.bcolptr[bj + 1]):
                bi = self.brow[bk]
                base = bk * bs * bs
                for r in range(bs):
                    for c in range(bs):
                        i = bi * bs + r
                        j = bj * bs + c
                        if i < self.nrows and j < self.ncols:
                            value = self.data[base + r * bs + c]
                            if value != 0.0:
                                dense[i][j] = value
        return dense

    @classmethod
    def from_dense(cls, dense: Dense, bsize: int) -> "BCSCMatrix":
        nrows = len(dense)
        ncols = len(dense[0]) if nrows else 0
        nbr = -(-nrows // bsize)
        nbc = -(-ncols // bsize)
        bcolptr = [0]
        brow: list[int] = []
        data: list[float] = []
        for bj in range(nbc):
            for bi in range(nbr):
                block = []
                nonzero = False
                for r in range(bsize):
                    for c in range(bsize):
                        i, j = bi * bsize + r, bj * bsize + c
                        v = (
                            dense[i][j]
                            if i < nrows and j < ncols
                            else 0.0
                        )
                        nonzero = nonzero or v != 0.0
                        block.append(v)
                if nonzero:
                    brow.append(bi)
                    data.extend(block)
            bcolptr.append(len(brow))
        return cls(nrows, ncols, bsize, bcolptr, brow, data)

    def __repr__(self):
        return (
            f"BCSCMatrix({self.nrows}x{self.ncols}, bsize={self.bsize}, "
            f"nblocks={self.nblocks})"
        )


def dense_equal(a: Dense, b: Dense, tol: float = 0.0) -> bool:
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
