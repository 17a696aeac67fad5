"""CSF: compressed sparse fiber storage for 3-D tensors (SPLATT-style).

The 3-D analogue of CSR: mode-0 *roots* compress distinct ``i`` values,
each root points to a run of mode-1 *fibers* (distinct ``(i, j)`` pairs),
and each fiber points to its nonzeros:

* ``rootidx[ip]``            — the dense ``i`` of root ``ip``,
* ``fptr[ip] .. fptr[ip+1]`` — the fiber range of root ``ip``,
* ``fibidx[jp]``             — the dense ``j`` of fiber ``jp``,
* ``kptr[jp] .. kptr[jp+1]`` — the nonzero range of fiber ``jp``,
* ``kidx[kp]``, ``val[kp]``  — the dense ``k`` and value of nonzero ``kp``.

Storage order is lexicographic ``(i, j, k)``, which is what makes CSF a
fast-path *source* for conversions to other lexicographically ordered
formats (the position is the identity, no permutation needed).
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .storage import index_array, value_array
from .tensors3d import COOTensor3D, _ValidatedTensor


class CSFTensor(_ValidatedTensor):
    """Three-level compressed sparse fiber tensor."""

    format_name = "CSF"

    def __init__(
        self,
        dims: tuple[int, int, int],
        rootidx: Sequence[int],
        fptr: Sequence[int],
        fibidx: Sequence[int],
        kptr: Sequence[int],
        kidx: Sequence[int],
        val: Sequence[float],
    ):
        self.dims = (int(dims[0]), int(dims[1]), int(dims[2]))
        self.rootidx = index_array(rootidx, "rootidx")
        self.fptr = index_array(fptr, "fptr")
        self.fibidx = index_array(fibidx, "fibidx")
        self.kptr = index_array(kptr, "kptr")
        self.kidx = index_array(kidx, "kidx")
        self.val = value_array(val, "val")

    @property
    def nnz(self) -> int:
        return len(self.val)

    @property
    def nroots(self) -> int:
        return len(self.rootidx)

    @property
    def nfibers(self) -> int:
        return len(self.fibidx)

    # ------------------------------------------------------------------
    def nonzeros(self) -> Iterator[tuple[int, int, int, float]]:
        for ip in range(self.nroots):
            i = self.rootidx[ip]
            for jp in range(self.fptr[ip], self.fptr[ip + 1]):
                j = self.fibidx[jp]
                for kp in range(self.kptr[jp], self.kptr[jp + 1]):
                    yield i, j, self.kidx[kp], self.val[kp]

    def to_coo(self) -> COOTensor3D:
        rows, cols, zs, vals = [], [], [], []
        for i, j, k, v in self.nonzeros():
            rows.append(i)
            cols.append(j)
            zs.append(k)
            vals.append(v)
        return COOTensor3D(self.dims, rows, cols, zs, vals)

    def to_dict(self) -> dict[tuple[int, int, int], float]:
        return {(i, j, k): v for i, j, k, v in self.nonzeros()}

    @classmethod
    def from_coo(cls, tensor: COOTensor3D) -> "CSFTensor":
        """Assemble from (any-order) COO by sorting lexicographically."""
        entries = sorted(zip(
            tensor.row.tolist(), tensor.col.tolist(), tensor.z.tolist(),
            tensor.val.tolist(),
        ))
        rootidx: list[int] = []
        fptr = [0]
        fibidx: list[int] = []
        kptr = [0]
        kidx: list[int] = []
        val: list[float] = []
        last_i: int | None = None
        last_j: int | None = None
        for i, j, k, v in entries:
            if i != last_i:
                rootidx.append(i)
                fptr.append(fptr[-1])
                last_i, last_j = i, None
            if j != last_j:
                fibidx.append(j)
                fptr[-1] += 1
                kptr.append(kptr[-1])
                last_j = j
            kidx.append(k)
            kptr[-1] += 1
            val.append(v)
        return cls(tensor.dims, rootidx, fptr, fibidx, kptr, kidx, val)

    def __repr__(self):
        return (
            f"CSFTensor({self.dims}, nnz={self.nnz}, roots={self.nroots}, "
            f"fibers={self.nfibers})"
        )
