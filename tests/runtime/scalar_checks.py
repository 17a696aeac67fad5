"""Scalar reference audits: the hand-written container ``check()`` bodies.

The runtime containers now check themselves through the invariants their
level composition derives (:meth:`repro.formats.levels.Composition.check`,
vectorized).  These are the per-class loops that used to live in
``repro.runtime``, kept as the parity oracle (BCSR and BCSC share one
body; messages are not compared) — with one unification: equal adjacent indices of an ordered level raise
:class:`DuplicateCoordinateError` in every format, where CSF used to
raise :class:`UnsortedInputError`.

:func:`scalar_check` dispatches on the container class, and
:func:`scalar_first_unsorted` is the old lexicographic scan.
"""

from __future__ import annotations

from repro.errors import (
    BoundsError,
    DuplicateCoordinateError,
    ShapeError,
    StructureError,
    UnsortedInputError,
)
from repro.runtime import (
    BCSCMatrix,
    BCSRMatrix,
    COOMatrix,
    COOTensor3D,
    CSCMatrix,
    CSFTensor,
    CSRMatrix,
    DCSRMatrix,
    DIAMatrix,
    ELLMatrix,
    MortonCOOMatrix,
    MortonCOOTensor3D,
)
from repro.runtime.morton import morton2, morton3


def check_coo(self) -> None:
    if not (len(self.row) == len(self.col) == len(self.val)):
        raise ShapeError(
            f"row/col/val lengths differ "
            f"({len(self.row)}/{len(self.col)}/{len(self.val)})",
            container=repr(self),
        )
    seen: dict[tuple[int, int], int] = {}
    for n, (i, j) in enumerate(zip(self.row, self.col)):
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise BoundsError(
                f"coordinate ({i}, {j}) at position {n} is outside "
                f"{self.nrows}x{self.ncols}",
                coordinate=(i, j),
                position=n,
                container=repr(self),
            )
        first = seen.setdefault((i, j), n)
        if first != n:
            raise DuplicateCoordinateError(
                f"coordinate ({i}, {j}) stored at positions "
                f"{first} and {n}",
                coordinate=(i, j),
                positions=(first, n),
                container=repr(self),
            )


def check_mcoo(self) -> None:
    check_coo(self)
    keys = [morton2(i, j) for i, j in zip(self.row, self.col)]
    for n, (a, b) in enumerate(zip(keys, keys[1:]), start=1):
        if a >= b:
            raise UnsortedInputError(
                f"entries not in strictly increasing Morton order at "
                f"position {n}",
                position=n,
                container=repr(self),
            )


def check_csr(self) -> None:
    if len(self.rowptr) != self.nrows + 1:
        raise ShapeError(
            f"rowptr must have nrows + 1 = {self.nrows + 1} entries, "
            f"got {len(self.rowptr)}",
            container=repr(self),
        )
    if self.rowptr[0] != 0 or self.rowptr[-1] != self.nnz:
        raise StructureError(
            f"rowptr must start at 0 and end at nnz={self.nnz}, got "
            f"[{self.rowptr[0]}, ..., {self.rowptr[-1]}]",
            container=repr(self),
        )
    if any(a > b for a, b in zip(self.rowptr, self.rowptr[1:])):
        raise StructureError(
            "rowptr must be non-decreasing", container=repr(self)
        )
    if len(self.col) != len(self.val):
        raise ShapeError(
            f"col/val lengths differ ({len(self.col)}/{len(self.val)})",
            container=repr(self),
        )
    for i in range(self.nrows):
        cols = self.col[self.rowptr[i] : self.rowptr[i + 1]]
        for j in cols:
            if not (0 <= j < self.ncols):
                raise BoundsError(
                    f"column {j} out of bounds in row {i}",
                    coordinate=(i, j),
                    container=repr(self),
                )
        for a, b in zip(cols, cols[1:]):
            if a == b:
                raise DuplicateCoordinateError(
                    f"duplicate column index {a} in row {i}",
                    coordinate=(i, a),
                    container=repr(self),
                )
            if a > b:
                raise UnsortedInputError(
                    f"columns not strictly increasing in row {i}: "
                    f"{a} before {b}",
                    container=repr(self),
                )


def check_csc(self) -> None:
    if len(self.colptr) != self.ncols + 1:
        raise ShapeError(
            f"colptr must have ncols + 1 = {self.ncols + 1} entries, "
            f"got {len(self.colptr)}",
            container=repr(self),
        )
    if self.colptr[0] != 0 or self.colptr[-1] != self.nnz:
        raise StructureError(
            f"colptr must start at 0 and end at nnz={self.nnz}, got "
            f"[{self.colptr[0]}, ..., {self.colptr[-1]}]",
            container=repr(self),
        )
    if any(a > b for a, b in zip(self.colptr, self.colptr[1:])):
        raise StructureError(
            "colptr must be non-decreasing", container=repr(self)
        )
    if len(self.row) != len(self.val):
        raise ShapeError(
            f"row/val lengths differ ({len(self.row)}/{len(self.val)})",
            container=repr(self),
        )
    for j in range(self.ncols):
        rows = self.row[self.colptr[j] : self.colptr[j + 1]]
        for i in rows:
            if not (0 <= i < self.nrows):
                raise BoundsError(
                    f"row {i} out of bounds in column {j}",
                    coordinate=(i, j),
                    container=repr(self),
                )
        for a, b in zip(rows, rows[1:]):
            if a == b:
                raise DuplicateCoordinateError(
                    f"duplicate row index {a} in column {j}",
                    coordinate=(a, j),
                    container=repr(self),
                )
            if a > b:
                raise UnsortedInputError(
                    f"rows not strictly increasing in column {j}: "
                    f"{a} before {b}",
                    container=repr(self),
                )


def check_dia(self) -> None:
    for a, b in zip(self.off, self.off[1:]):
        if a == b:
            raise DuplicateCoordinateError(
                f"duplicate diagonal offset {a}", container=repr(self)
            )
        if a > b:
            raise UnsortedInputError(
                f"off must be strictly increasing: {a} before {b}",
                container=repr(self),
            )
    for o in self.off:
        if not (-self.nrows < o < self.ncols):
            raise BoundsError(
                f"offset {o} outside the valid diagonal range "
                f"({-(self.nrows - 1)} .. {self.ncols - 1})",
                coordinate=o,
                container=repr(self),
            )
    if len(self.data) != self.nrows * self.ndiags:
        raise ShapeError(
            f"data must have nrows * ndiags = "
            f"{self.nrows * self.ndiags} entries, got {len(self.data)}",
            container=repr(self),
        )


def _check_blocked(self, ptr, idx, nouter, ninner, outer_first) -> None:
    """BCSR (``outer_first``: block rows outer) and BCSC share one body."""
    if self.bsize < 1:
        raise ShapeError("block size must be positive", container=repr(self))
    if len(ptr) != nouter + 1:
        raise ShapeError(
            f"pointer must have {nouter + 1} entries, got {len(ptr)}",
            container=repr(self),
        )
    if ptr[0] != 0 or ptr[-1] != self.nblocks:
        raise StructureError(
            f"pointer must start at 0 and end at nblocks={self.nblocks}",
            container=repr(self),
        )
    if any(a > b for a, b in zip(ptr, ptr[1:])):
        raise StructureError(
            "pointer must be non-decreasing", container=repr(self)
        )
    if len(self.data) != self.nblocks * self.bsize * self.bsize:
        raise ShapeError(
            "data must hold bsize*bsize entries per block",
            container=repr(self),
        )

    def coord(outer, inner):
        return (outer, inner) if outer_first else (inner, outer)

    for bo in range(nouter):
        inners = idx[ptr[bo] : ptr[bo + 1]]
        for bi in inners:
            if not (0 <= bi < ninner):
                raise BoundsError(
                    f"block index {bi} out of bounds in segment {bo}",
                    coordinate=coord(bo, bi),
                    container=repr(self),
                )
        for a, b in zip(inners, inners[1:]):
            if a == b:
                raise DuplicateCoordinateError(
                    f"duplicate block index {a} in segment {bo}",
                    coordinate=coord(bo, a),
                    container=repr(self),
                )
            if a > b:
                raise UnsortedInputError(
                    f"block indices not strictly increasing in segment "
                    f"{bo}: {a} before {b}",
                    container=repr(self),
                )


def check_bcsr(self) -> None:
    nbc = -(-self.ncols // self.bsize) if self.bsize >= 1 else 0
    nbr = self.nblockrows if self.bsize >= 1 else 0
    _check_blocked(self, self.browptr, self.bcol, nbr, nbc, True)


def check_bcsc(self) -> None:
    nbr = -(-self.nrows // self.bsize) if self.bsize >= 1 else 0
    nbc = self.nblockcols if self.bsize >= 1 else 0
    _check_blocked(self, self.bcolptr, self.brow, nbc, nbr, False)


def check_ell(self) -> None:
    expected = self.nrows * self.width
    if len(self.col) != expected or len(self.val) != expected:
        raise ShapeError(
            f"col/val must have nrows * width = {expected} entries, "
            f"got {len(self.col)}/{len(self.val)}",
            container=repr(self),
        )
    for i in range(self.nrows):
        seen: set[int] = set()
        for w in range(self.width):
            j = self.col[i * self.width + w]
            if j == self.PAD:
                continue
            if not (0 <= j < self.ncols):
                raise BoundsError(
                    f"column {j} out of bounds at row {i}",
                    coordinate=(i, j),
                    container=repr(self),
                )
            if j in seen:
                raise DuplicateCoordinateError(
                    f"duplicate column index {j} in row {i}",
                    coordinate=(i, j),
                    container=repr(self),
                )
            seen.add(j)


def check_dcsr(self) -> None:
    if len(self.dptr) != self.ndrows + 1:
        raise ShapeError(
            f"dptr must have ndrows + 1 = {self.ndrows + 1} entries, "
            f"got {len(self.dptr)}",
            container=repr(self),
        )
    if self.dptr and (self.dptr[0] != 0 or self.dptr[-1] != self.nnz):
        raise StructureError(
            f"dptr must start at 0 and end at nnz={self.nnz}, got "
            f"[{self.dptr[0]}, ..., {self.dptr[-1]}]",
            container=repr(self),
        )
    if any(a > b for a, b in zip(self.dptr, self.dptr[1:])):
        raise StructureError(
            "dptr must be non-decreasing", container=repr(self)
        )
    if len(self.dcol) != len(self.val):
        raise ShapeError(
            f"dcol/val lengths differ ({len(self.dcol)}/{len(self.val)})",
            container=repr(self),
        )
    for i in self.rowidx:
        if not (0 <= i < self.nrows):
            raise BoundsError(
                f"row index {i} out of bounds",
                coordinate=(i, 0),
                container=repr(self),
            )
    for a, b in zip(self.rowidx, self.rowidx[1:]):
        if a == b:
            raise DuplicateCoordinateError(
                f"duplicate row index {a}",
                coordinate=(a, 0),
                container=repr(self),
            )
        if a > b:
            raise UnsortedInputError(
                f"row indices not strictly increasing: {a} before {b}",
                container=repr(self),
            )
    for p, i in enumerate(self.rowidx):
        cols = self.dcol[self.dptr[p] : self.dptr[p + 1]]
        if not cols:
            raise StructureError(
                f"populated row {i} stores no entries",
                container=repr(self),
            )
        for j in cols:
            if not (0 <= j < self.ncols):
                raise BoundsError(
                    f"column {j} out of bounds in row {i}",
                    coordinate=(i, j),
                    container=repr(self),
                )
        for a, b in zip(cols, cols[1:]):
            if a == b:
                raise DuplicateCoordinateError(
                    f"duplicate column index {a} in row {i}",
                    coordinate=(i, a),
                    container=repr(self),
                )
            if a > b:
                raise UnsortedInputError(
                    f"columns not strictly increasing in row {i}: "
                    f"{a} before {b}",
                    container=repr(self),
                )


def _strict(self, seq, what: str, start: int = 0) -> None:
    """Strictly increasing, with the duplicate unification applied.

    ``seq`` is a slice starting at ``start`` of its level's index array.
    """
    for q in range(1, len(seq)):
        a, b = seq[q - 1], seq[q]
        if a == b:
            raise DuplicateCoordinateError(
                f"duplicate {what} {a}",
                coordinate=a,
                positions=(start + q - 1, start + q),
                container=repr(self),
            )
        if a > b:
            raise UnsortedInputError(
                f"{what} not strictly increasing", container=repr(self)
            )


def check_csf(self) -> None:
    if len(self.fptr) != self.nroots + 1:
        raise ShapeError(
            "fptr must have nroots + 1 entries", container=repr(self)
        )
    if len(self.kptr) != self.nfibers + 1:
        raise ShapeError(
            "kptr must have nfibers + 1 entries", container=repr(self)
        )
    if self.fptr[0] != 0 or self.fptr[-1] != self.nfibers:
        raise StructureError(
            "fptr must start at 0 and end at nfibers",
            container=repr(self),
        )
    if self.kptr[0] != 0 or self.kptr[-1] != self.nnz:
        raise StructureError(
            "kptr must start at 0 and end at nnz", container=repr(self)
        )
    if any(a > b for a, b in zip(self.fptr, self.fptr[1:])):
        raise StructureError(
            "fptr must be non-decreasing", container=repr(self)
        )
    if any(a > b for a, b in zip(self.kptr, self.kptr[1:])):
        raise StructureError(
            "kptr must be non-decreasing", container=repr(self)
        )
    if len(self.kidx) != self.nnz:
        raise ShapeError("kidx/val lengths differ", container=repr(self))
    _strict(self, self.rootidx, "root index")
    for ip in range(self.nroots):
        if not (0 <= self.rootidx[ip] < self.dims[0]):
            raise BoundsError(
                f"root index {self.rootidx[ip]} out of bounds",
                coordinate=self.rootidx[ip],
                position=ip,
                container=repr(self),
            )
        lo, hi = self.fptr[ip], self.fptr[ip + 1]
        if lo == hi:
            raise StructureError(
                f"root {ip} has no fibers", container=repr(self)
            )
        _strict(self, self.fibidx[lo:hi], "fiber index", lo)
    for jp in range(self.nfibers):
        if not (0 <= self.fibidx[jp] < self.dims[1]):
            raise BoundsError(
                f"fiber index {self.fibidx[jp]} out of bounds",
                coordinate=self.fibidx[jp],
                position=jp,
                container=repr(self),
            )
        lo, hi = self.kptr[jp], self.kptr[jp + 1]
        if lo == hi:
            raise StructureError(
                f"fiber {jp} has no nonzeros", container=repr(self)
            )
        for kp in range(lo, hi):
            k = self.kidx[kp]
            if not (0 <= k < self.dims[2]):
                raise BoundsError(
                    f"mode-2 index {k} out of bounds in fiber {jp}",
                    coordinate=k,
                    position=kp,
                    container=repr(self),
                )
        _strict(self, self.kidx[lo:hi], "mode-2 index", lo)


def check_coo3d(self) -> None:
    lengths = {len(self.row), len(self.col), len(self.z), len(self.val)}
    if len(lengths) != 1:
        raise ShapeError(
            "coordinate/value arrays have differing lengths",
            container=repr(self),
        )
    seen: dict[tuple[int, int, int], int] = {}
    for n, (i, j, k) in enumerate(zip(self.row, self.col, self.z)):
        if not (
            0 <= i < self.dims[0]
            and 0 <= j < self.dims[1]
            and 0 <= k < self.dims[2]
        ):
            raise BoundsError(
                f"coordinate ({i}, {j}, {k}) at position {n} is outside "
                f"{self.dims}",
                coordinate=(i, j, k),
                position=n,
                container=repr(self),
            )
        first = seen.setdefault((i, j, k), n)
        if first != n:
            raise DuplicateCoordinateError(
                f"coordinate ({i}, {j}, {k}) stored at positions "
                f"{first} and {n}",
                coordinate=(i, j, k),
                positions=(first, n),
                container=repr(self),
            )


def check_mcoo3(self) -> None:
    check_coo3d(self)
    keys = [morton3(i, j, k) for i, j, k in zip(self.row, self.col, self.z)]
    for n, (a, b) in enumerate(zip(keys, keys[1:]), start=1):
        if a >= b:
            raise UnsortedInputError(
                f"entries not in strictly increasing Morton order at "
                f"position {n}",
                position=n,
                container=repr(self),
            )


def scalar_first_unsorted(container) -> int | None:
    """Position of the first entry breaking lexicographic order."""
    axes = [container.row, container.col]
    if isinstance(container, COOTensor3D):
        axes.append(container.z)
    prev = None
    for n, entry in enumerate(zip(*axes)):
        if prev is not None and entry < prev:
            return n
        prev = entry
    return None


#: Scalar audit per container class, most derived first.
ORACLES = (
    (MortonCOOMatrix, check_mcoo),
    (COOMatrix, check_coo),
    (CSRMatrix, check_csr),
    (CSCMatrix, check_csc),
    (DIAMatrix, check_dia),
    (BCSRMatrix, check_bcsr),
    (BCSCMatrix, check_bcsc),
    (ELLMatrix, check_ell),
    (DCSRMatrix, check_dcsr),
    (CSFTensor, check_csf),
    (MortonCOOTensor3D, check_mcoo3),
    (COOTensor3D, check_coo3d),
)


def scalar_check(container) -> None:
    """Run the scalar audit of ``container``'s class."""
    for cls, audit in ORACLES:
        if isinstance(container, cls):
            return audit(container)
    raise TypeError(f"no scalar audit for {type(container).__name__}")
