"""Tests for the HiCOO hierarchical tensor container."""

import pytest

from repro.datagen import synthetic_tensor3d
from repro.runtime import COOTensor3D, HiCOOTensor, MortonCOOTensor3D
from repro.baselines.hicoo import blocked_morton_sort


@pytest.fixture(scope="module")
def tensor():
    return synthetic_tensor3d((32, 28, 20), 300, seed=8)


class TestAssembly:
    def test_roundtrip(self, tensor):
        h = HiCOOTensor.from_coo(tensor, block_bits=3)
        h.check()
        assert h.to_dict() == tensor.to_dict()
        assert h.nnz == tensor.nnz

    @pytest.mark.parametrize("bits", [1, 2, 4, 6])
    def test_any_block_size(self, tensor, bits):
        h = HiCOOTensor.from_coo(tensor, block_bits=bits)
        h.check()
        assert h.to_dict() == tensor.to_dict()

    def test_storage_order_matches_blocked_sort(self, tensor):
        """HiCOO's nonzero order IS the blocked z-Morton order (Table 4)."""
        h = HiCOOTensor.from_coo(tensor, block_bits=4)
        reordered = blocked_morton_sort(tensor, block_bits=4)
        flat = list(h.nonzeros())
        assert [e[0] for e in flat] == reordered.row.tolist()
        assert [e[1] for e in flat] == reordered.col.tolist()
        assert [e[2] for e in flat] == reordered.z.tolist()
        assert [e[3] for e in flat] == reordered.val.tolist()

    def test_block_count_shrinks_with_bigger_blocks(self, tensor):
        small = HiCOOTensor.from_coo(tensor, block_bits=2)
        large = HiCOOTensor.from_coo(tensor, block_bits=5)
        assert large.nblocks <= small.nblocks

    def test_invalid_block_bits(self, tensor):
        with pytest.raises(ValueError):
            HiCOOTensor.from_coo(tensor, block_bits=0)

    def test_to_coo(self, tensor):
        h = HiCOOTensor.from_coo(tensor, block_bits=3)
        back = h.to_coo()
        back.check()
        assert back.to_dict() == tensor.to_dict()


class TestValidation:
    def small(self):
        t = COOTensor3D((8, 8, 8), [0, 5], [1, 6], [2, 7], [1.0, 2.0])
        return HiCOOTensor.from_coo(t, block_bits=2)

    def test_check_passes(self):
        self.small().check()

    def test_bad_bptr_rejected(self):
        h = self.small()
        h.bptr[-1] += 1
        with pytest.raises(ValueError):
            h.check()

    def test_out_of_block_offset_rejected(self):
        h = self.small()
        h.eind[0] = 9  # element 0's offset triple becomes (9, ., .)
        with pytest.raises(ValueError):
            h.check()

    def test_block_order_enforced(self):
        h = self.small()
        h.bind.reverse()
        with pytest.raises(ValueError):
            h.check()

    def test_out_of_bounds_coordinate_rejected(self):
        t = COOTensor3D((5, 5, 5), [4], [4], [4], [1.0])
        h = HiCOOTensor.from_coo(t, block_bits=2)
        h.dims = (4, 5, 5)
        with pytest.raises(ValueError):
            h.check()


class TestMTTKRP:
    def test_matches_coo(self, tensor):
        import random

        from repro.kernels import matrices_close, mttkrp_coo, mttkrp_hicoo

        rng = random.Random(5)
        rank = 3
        B = [[rng.uniform(-1, 1) for _ in range(rank)]
             for _ in range(tensor.dims[1])]
        C = [[rng.uniform(-1, 1) for _ in range(rank)]
             for _ in range(tensor.dims[2])]
        h = HiCOOTensor.from_coo(tensor, block_bits=3)
        assert matrices_close(mttkrp_coo(tensor, B, C),
                              mttkrp_hicoo(h, B, C))

    def test_morton_order_agrees(self, tensor):
        import random

        from repro.kernels import matrices_close, mttkrp_coo

        rng = random.Random(6)
        B = [[rng.uniform(-1, 1)] for _ in range(tensor.dims[1])]
        C = [[rng.uniform(-1, 1)] for _ in range(tensor.dims[2])]
        mcoo = MortonCOOTensor3D.from_coo(tensor)
        assert matrices_close(mttkrp_coo(tensor, B, C),
                              mttkrp_coo(mcoo, B, C))

    def test_empty_rank(self, tensor):
        from repro.kernels import mttkrp_coo

        out = mttkrp_coo(tensor, [[] for _ in range(tensor.dims[1])],
                         [[] for _ in range(tensor.dims[2])])
        assert out == [[] for _ in range(tensor.dims[0])]
