"""MTTKRP: the canonical sparse tensor kernel (used by ALTO / HiCOO).

Matricized-Tensor Times Khatri-Rao Product along mode 0:

    M[i, r] += X[i, j, k] * B[j, r] * C[k, r]

This is the computation whose locality the Morton/HiCOO reorderings
(Table 4) exist to improve: it touches factor-matrix rows indexed by every
mode at once, so storage orders with 3-D locality (MCOO3, HiCOO) reuse
factor rows across consecutive nonzeros.
"""

from __future__ import annotations


from repro.runtime import COOTensor3D
from repro.runtime.hicoo import HiCOOTensor

Matrix = list  # list[list[float]]


def zeros(rows: int, cols: int) -> Matrix:
    return [[0.0] * cols for _ in range(rows)]


def mttkrp_reference(
    entries, dims: tuple[int, int, int], B: Matrix, C: Matrix
) -> Matrix:
    """MTTKRP from an explicit nonzero iterable (the test oracle)."""
    rank = len(B[0]) if B else 0
    out = zeros(dims[0], rank)
    for i, j, k, v in entries:
        brow = B[j]
        crow = C[k]
        orow = out[i]
        for r in range(rank):
            orow[r] += v * brow[r] * crow[r]
    return out


def mttkrp_coo(tensor: COOTensor3D, B: Matrix, C: Matrix) -> Matrix:
    """MTTKRP over COO3D storage order."""
    return mttkrp_reference(tensor.nonzeros(), tensor.dims, B, C)


def mttkrp_hicoo(tensor: HiCOOTensor, B: Matrix, C: Matrix) -> Matrix:
    """MTTKRP over HiCOO: block-relative indexing with hoisted bases."""
    rank = len(B[0]) if B else 0
    out = zeros(tensor.dims[0], rank)
    bits = tensor.block_bits
    bptr, eind, val = (
        tensor.bptr.tolist(), tensor.element_offsets(), tensor.val.tolist()
    )
    for block, (bi, bj, bk) in enumerate(tensor.block_coords()):
        base_i = bi << bits
        base_j = bj << bits
        base_k = bk << bits
        for p in range(bptr[block], bptr[block + 1]):
            ei, ej, ek = eind[p]
            v = val[p]
            brow = B[base_j + ej]
            crow = C[base_k + ek]
            orow = out[base_i + ei]
            for r in range(rank):
                orow[r] += v * brow[r] * crow[r]
    return out


def matrices_close(a: Matrix, b: Matrix, tol: float = 1e-9) -> bool:
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        if any(abs(x - y) > tol for x, y in zip(ra, rb)):
            return False
    return True
