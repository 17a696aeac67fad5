"""HiCOO: hierarchical COO storage for sparse tensors (Li et al., SC'18).

The format the paper's Table 4 comparison comes from.  Nonzeros are
grouped into ``2^block_bits``-sided cubic blocks along the Morton curve;
per block HiCOO stores compact *element* offsets (a few bits each) while
the block coordinates are stored once per block:

* ``bptr``   — start position of each block's nonzeros (CSR-style pointer),
* ``bind``   — the block coordinate triple per block, flattened
  (``bind[3*b : 3*b + 3]``),
* ``eind``   — the within-block element offsets per nonzero, flattened
  (``eind[3*p : 3*p + 3]``),
* ``val``    — the values.

Assembly reuses the blocked z-Morton sort from the Table 4 baseline: the
sorted order *is* HiCOO's storage order, so (reorder, assemble) compose
exactly as HiCOO's construction does.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import (
    BoundsError,
    ShapeError,
    StructureError,
    UnsortedInputError,
)

from .morton import morton3
from .storage import index_array, listed, value_array
from .tensors3d import COOTensor3D, _ValidatedTensor


def _triples(flat) -> list[tuple[int, int, int]]:
    """A flattened triple array as a list of ``(x, y, z)`` tuples."""
    flat = flat.tolist()
    return list(zip(flat[0::3], flat[1::3], flat[2::3]))


class HiCOOTensor(_ValidatedTensor):
    """Blocked 3-D sparse tensor with compact per-block element indices."""

    format_name = "HICOO"

    def __init__(
        self,
        dims: tuple[int, int, int],
        block_bits: int,
        bptr: Sequence[int],
        bind: Sequence[tuple[int, int, int]],
        eind: Sequence[tuple[int, int, int]],
        val: Sequence[float],
    ):
        self.dims = (int(dims[0]), int(dims[1]), int(dims[2]))
        self.block_bits = int(block_bits)
        self.bptr = index_array(bptr, "bptr")
        self.bind = index_array([c for b in bind for c in b], "bind")
        self.eind = index_array([c for e in eind for c in e], "eind")
        self.val = value_array(val, "val")

    @property
    def nnz(self) -> int:
        return len(self.val)

    @property
    def nblocks(self) -> int:
        return len(self.bind) // 3

    @property
    def block_side(self) -> int:
        return 1 << self.block_bits

    def block_coords(self) -> list[tuple[int, int, int]]:
        """The block coordinate triple of every block, in storage order."""
        return _triples(self.bind)

    def element_offsets(self) -> list[tuple[int, int, int]]:
        """The within-block offset triple of every nonzero."""
        return _triples(self.eind)

    def check(self) -> None:
        if self.block_bits < 1:
            raise ShapeError("block_bits must be >= 1", container=repr(self))
        if len(self.bptr) != self.nblocks + 1:
            raise ShapeError(
                "bptr must have nblocks + 1 entries", container=repr(self)
            )
        if self.bptr[0] != 0 or self.bptr[-1] != self.nnz:
            raise StructureError(
                f"bptr must start at 0 and end at nnz={self.nnz}",
                container=repr(self),
            )
        if any(a > b for a, b in zip(self.bptr, self.bptr[1:])):
            raise StructureError(
                "bptr must be non-decreasing", container=repr(self)
            )
        if len(self.eind) != 3 * self.nnz:
            raise ShapeError(
                "one element index triple per nonzero required",
                container=repr(self),
            )
        side = self.block_side
        bptr, eind = self.bptr.tolist(), self.element_offsets()
        blocks = self.block_coords()
        for block, (bi, bj, bk) in enumerate(blocks):
            for p in range(bptr[block], bptr[block + 1]):
                ei, ej, ek = eind[p]
                if not (0 <= ei < side and 0 <= ej < side and 0 <= ek < side):
                    raise BoundsError(
                        f"element offset {eind[p]} outside block side "
                        f"{side}",
                        coordinate=eind[p],
                        position=p,
                        container=repr(self),
                    )
                i = (bi << self.block_bits) + ei
                j = (bj << self.block_bits) + ej
                k = (bk << self.block_bits) + ek
                if not (
                    0 <= i < self.dims[0]
                    and 0 <= j < self.dims[1]
                    and 0 <= k < self.dims[2]
                ):
                    raise BoundsError(
                        f"coordinate ({i}, {j}, {k}) out of bounds",
                        coordinate=(i, j, k),
                        position=p,
                        container=repr(self),
                    )
        # Blocks must follow the Morton curve (HiCOO's storage order).
        keys = [morton3(*b) for b in blocks]
        for n, (a, b) in enumerate(zip(keys, keys[1:]), start=1):
            if a >= b:
                raise UnsortedInputError(
                    f"blocks not in strictly increasing Morton order at "
                    f"block {n}",
                    position=n,
                    container=repr(self),
                )

    # ------------------------------------------------------------------
    def nonzeros(self):
        """Yield ``(i, j, k, value)`` in storage order."""
        bptr, eind, val = self.bptr.tolist(), self.element_offsets(), self.val
        for block, (bi, bj, bk) in enumerate(self.block_coords()):
            base_i = bi << self.block_bits
            base_j = bj << self.block_bits
            base_k = bk << self.block_bits
            for p in range(bptr[block], bptr[block + 1]):
                ei, ej, ek = eind[p]
                yield base_i + ei, base_j + ej, base_k + ek, val[p]

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
    def from_coo(
        cls, tensor: COOTensor3D, *, block_bits: int = 7
    ) -> "HiCOOTensor":
        """Assemble via the blocked z-Morton sort (the Table 4 step).

        Entries are bucketed by block, blocks ordered along the Morton
        curve, entries within a block ordered by the Morton key of their
        low bits — the same procedure as
        :func:`repro.baselines.hicoo.blocked_morton_sort`, but materializing
        the hierarchical index structure instead of a flat COO.
        """
        if block_bits < 1:
            raise ValueError("block_bits must be >= 1")
        mask = (1 << block_bits) - 1
        tensor = listed(tensor)

        buckets: dict[int, list[int]] = {}
        block_coords: dict[int, tuple[int, int, int]] = {}
        for n in range(tensor.nnz):
            coords = (
                tensor.row[n] >> block_bits,
                tensor.col[n] >> block_bits,
                tensor.z[n] >> block_bits,
            )
            key = morton3(*coords)
            buckets.setdefault(key, []).append(n)
            block_coords[key] = coords

        bptr = [0]
        bind: list[tuple[int, int, int]] = []
        eind: list[tuple[int, int, int]] = []
        val: list[float] = []
        for key in sorted(buckets):
            entries = buckets[key]
            entries.sort(
                key=lambda n: morton3(
                    tensor.row[n] & mask,
                    tensor.col[n] & mask,
                    tensor.z[n] & mask,
                )
            )
            bind.append(block_coords[key])
            for n in entries:
                eind.append(
                    (
                        tensor.row[n] & mask,
                        tensor.col[n] & mask,
                        tensor.z[n] & mask,
                    )
                )
                val.append(tensor.val[n])
            bptr.append(len(val))
        return cls(tensor.dims, block_bits, bptr, bind, eind, val)

    def __repr__(self):
        return (
            f"HiCOOTensor({self.dims}, nnz={self.nnz}, "
            f"nblocks={self.nblocks}, block_bits={self.block_bits})"
        )
