"""HiCOO's hand-written blocked z-Morton reordering (Li et al., SC'18).

The Table 4 comparator: instead of sorting the whole tensor by its full
Morton key (what the synthesized COO3D→MCOO3 inspector does), HiCOO
"splits the original tensor into smaller kernels and then applies a quick
Morton sort to sort each block", touching only short keys per block.  The
result is the same Morton-ordered tensor, reached faster.
"""

from __future__ import annotations

from repro.runtime import COOTensor3D, MortonCOOTensor3D
from repro.runtime.morton import morton3
from repro.runtime.storage import listed


def blocked_morton_sort(
    tensor: COOTensor3D, block_bits: int = 7
) -> MortonCOOTensor3D:
    """Reorder a COO3D tensor into Morton order via blocked sorting.

    ``block_bits`` is the log2 of the kernel side length (HiCOO's
    superblock size).  Entries are first bucketed by their block's Morton
    key, blocks are processed in key order, and each block's entries are
    sorted by the Morton key of their low coordinate bits only — small keys,
    small sorts.
    """
    tensor = listed(tensor)
    if block_bits < 1:
        raise ValueError("block_bits must be >= 1")
    mask = (1 << block_bits) - 1

    buckets: dict[int, list[int]] = {}
    for n in range(tensor.nnz):
        block_key = morton3(
            tensor.row[n] >> block_bits,
            tensor.col[n] >> block_bits,
            tensor.z[n] >> block_bits,
        )
        buckets.setdefault(block_key, []).append(n)

    row: list[int] = []
    col: list[int] = []
    z: list[int] = []
    val: list[float] = []
    for block_key in sorted(buckets):
        entries = buckets[block_key]
        entries.sort(
            key=lambda n: morton3(
                tensor.row[n] & mask,
                tensor.col[n] & mask,
                tensor.z[n] & mask,
            )
        )
        for n in entries:
            row.append(tensor.row[n])
            col.append(tensor.col[n])
            z.append(tensor.z[n])
            val.append(tensor.val[n])
    return MortonCOOTensor3D(tensor.dims, row, col, z, val)


def whole_tensor_morton_sort(tensor: COOTensor3D) -> MortonCOOTensor3D:
    """Reference: sort the entire tensor by the full Morton key.

    This is the direct approach the synthesized inspector takes (minus the
    permutation-structure overhead); exposed for the block-size ablation.
    """
    return MortonCOOTensor3D.from_coo(tensor)
