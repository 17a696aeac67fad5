"""SPARSKIT-style conversion routines (Saad, 1994).

Pure-Python translations of the FORMATS module idioms: ``coocsr``,
``csrcsc`` and ``csrdia``.  SPARSKIT reaches some destinations through an
intermediary format (COO→CSC goes through CSR, COO→DIA through CSR), which
is why it trails single-pass approaches in the paper's Figure 2.
"""

from __future__ import annotations

from repro.runtime import COOMatrix, CSCMatrix, CSRMatrix, DIAMatrix
from repro.runtime.storage import listed


def coocsr(coo: COOMatrix) -> CSRMatrix:
    """SPARSKIT ``coocsr``: count rows, shift-pointer scatter, unshift."""
    coo = listed(coo)
    nnz = coo.nnz
    nrow = coo.nrows
    # Determine the row lengths.
    rowptr = [0] * (nrow + 1)
    for n in range(nnz):
        rowptr[coo.row[n]] += 1
    # The starting position of each row.
    start = 0
    for i in range(nrow + 1):
        length = rowptr[i]
        rowptr[i] = start
        start += length
    # Go through the structure once more, filling in output.
    col = [0] * nnz
    val = [0.0] * nnz
    for n in range(nnz):
        i = coo.row[n]
        pos = rowptr[i]
        col[pos] = coo.col[n]
        val[pos] = coo.val[n]
        rowptr[i] = pos + 1
    # Shift back rowptr (SPARSKIT's backward unshift loop).
    for i in range(nrow, 0, -1):
        rowptr[i] = rowptr[i - 1]
    rowptr[0] = 0
    return CSRMatrix(nrow, coo.ncols, rowptr, col, val)


def csrcsc(csr: CSRMatrix) -> CSCMatrix:
    """SPARSKIT ``csrcsc``: transposition with the same shift idiom."""
    csr = listed(csr)
    nnz = csr.nnz
    ncol = csr.ncols
    colptr = [0] * (ncol + 1)
    for k in range(nnz):
        colptr[csr.col[k]] += 1
    start = 0
    for j in range(ncol + 1):
        length = colptr[j]
        colptr[j] = start
        start += length
    row = [0] * nnz
    val = [0.0] * nnz
    for i in range(csr.nrows):
        for k in range(csr.rowptr[i], csr.rowptr[i + 1]):
            j = csr.col[k]
            pos = colptr[j]
            row[pos] = i
            val[pos] = csr.val[k]
            colptr[j] = pos + 1
    for j in range(ncol, 0, -1):
        colptr[j] = colptr[j - 1]
    colptr[0] = 0
    return CSCMatrix(csr.nrows, ncol, colptr, row, val)


def coocsc(coo: COOMatrix) -> CSCMatrix:
    """COO→CSC through the CSR intermediary (SPARSKIT has no direct path)."""
    return csrcsc(coocsr(coo))


def csrdia(csr: CSRMatrix) -> DIAMatrix:
    """SPARSKIT ``csrdia`` restricted to exact conversion (all diagonals).

    SPARSKIT first computes the occupancy of every diagonal (its ``infdia``
    routine), selects the populated ones, then scatters row by row.
    """
    csr = listed(csr)
    nrow, ncol = csr.nrows, csr.ncols
    span = nrow + ncol - 1
    occupancy = [0] * span
    base = nrow - 1
    for i in range(nrow):
        for k in range(csr.rowptr[i], csr.rowptr[i + 1]):
            occupancy[csr.col[k] - i + base] += 1
    offsets = [slot - base for slot in range(span) if occupancy[slot] != 0]
    index_of = {off: d for d, off in enumerate(offsets)}
    nd = len(offsets)
    data = [0.0] * (nrow * nd)
    for i in range(nrow):
        for k in range(csr.rowptr[i], csr.rowptr[i + 1]):
            d = index_of[csr.col[k] - i]
            data[nd * i + d] = csr.val[k]
    return DIAMatrix(nrow, ncol, offsets, data)


def coodia(coo: COOMatrix) -> DIAMatrix:
    """COO→DIA through the CSR intermediary."""
    return csrdia(coocsr(coo))
