"""Intel-MKL-style conversion routines.

``mkl_sparse_convert`` guarantees canonically ordered output regardless of
input order, which it achieves by materializing and sorting coordinate
triples before assembly.  That extra sort is what makes this family the
slowest of the comparators on already-sorted inputs in the paper's Figure 2.
"""

from __future__ import annotations

from repro.runtime import COOMatrix, CSCMatrix, CSRMatrix, DIAMatrix
from repro.runtime.storage import listed


def _sorted_triples(entries, key):
    return sorted(entries, key=key)


def coo_to_csr(coo: COOMatrix) -> CSRMatrix:
    """Sort triples row-major, then walk once building ``rowptr``."""
    coo = listed(coo)
    triples = _sorted_triples(
        list(zip(coo.row, coo.col, coo.val)), key=lambda t: (t[0], t[1])
    )
    rowptr = [0] * (coo.nrows + 1)
    col = [0] * coo.nnz
    val = [0.0] * coo.nnz
    for n, (i, j, v) in enumerate(triples):
        rowptr[i + 1] += 1
        col[n] = j
        val[n] = v
    for i in range(coo.nrows):
        rowptr[i + 1] += rowptr[i]
    return CSRMatrix(coo.nrows, coo.ncols, rowptr, col, val)


def coo_to_csc(coo: COOMatrix) -> CSCMatrix:
    """Sort triples column-major, then walk once building ``colptr``."""
    coo = listed(coo)
    triples = _sorted_triples(
        list(zip(coo.row, coo.col, coo.val)), key=lambda t: (t[1], t[0])
    )
    colptr = [0] * (coo.ncols + 1)
    row = [0] * coo.nnz
    val = [0.0] * coo.nnz
    for n, (i, j, v) in enumerate(triples):
        colptr[j + 1] += 1
        row[n] = i
        val[n] = v
    for j in range(coo.ncols):
        colptr[j + 1] += colptr[j]
    return CSCMatrix(coo.nrows, coo.ncols, colptr, row, val)


def csr_to_csc(csr: CSRMatrix) -> CSCMatrix:
    """Materialize triples from CSR, sort column-major, reassemble."""
    csr = listed(csr)
    triples = []
    for i in range(csr.nrows):
        for k in range(csr.rowptr[i], csr.rowptr[i + 1]):
            triples.append((i, csr.col[k], csr.val[k]))
    triples.sort(key=lambda t: (t[1], t[0]))
    colptr = [0] * (csr.ncols + 1)
    row = [0] * csr.nnz
    val = [0.0] * csr.nnz
    for n, (i, j, v) in enumerate(triples):
        colptr[j + 1] += 1
        row[n] = i
        val[n] = v
    for j in range(csr.ncols):
        colptr[j + 1] += colptr[j]
    return CSCMatrix(csr.nrows, csr.ncols, colptr, row, val)


def coo_to_dia(coo: COOMatrix) -> DIAMatrix:
    """Convert through canonical CSR, then assemble diagonals.

    MKL has no direct COO→DIA conversion; applications convert to CSR and
    use the CSR-based diagonal extraction.
    """
    csr = listed(coo_to_csr(coo))
    offsets = sorted(
        {csr.col[k] - i for i in range(csr.nrows)
         for k in range(csr.rowptr[i], csr.rowptr[i + 1])}
    )
    index_of = {off: d for d, off in enumerate(offsets)}
    nd = len(offsets)
    data = [0.0] * (csr.nrows * nd)
    for i in range(csr.nrows):
        for k in range(csr.rowptr[i], csr.rowptr[i + 1]):
            d = index_of[csr.col[k] - i]
            data[nd * i + d] = csr.val[k]
    return DIAMatrix(csr.nrows, csr.ncols, offsets, data)
