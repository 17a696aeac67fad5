"""Unit tests for the baseline conversion libraries."""

import random

import pytest

from repro.baselines import REGISTRY, mkl_style, sparskit_style, taco_style
from repro.baselines.hicoo import blocked_morton_sort, whole_tensor_morton_sort
from repro.datagen import shuffled, synthetic_tensor3d
from repro.runtime import COOMatrix, CSRMatrix, dense_equal


def random_dense(nrows, ncols, density=0.3, seed=0):
    rng = random.Random(seed)
    return [
        [
            round(rng.uniform(0.5, 9.5), 3) if rng.random() < density else 0.0
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]


DENSE = random_dense(12, 14, 0.3, seed=42)
COO = COOMatrix.from_dense(DENSE)
CSR = CSRMatrix.from_dense(DENSE)


class TestRegistry:
    def test_all_conversions_covered(self):
        conversions = {c for c, _ in REGISTRY}
        assert conversions == {"COO_CSR", "COO_CSC", "CSR_CSC", "COO_DIA"}

    def test_all_libraries_covered(self):
        libs = {l for _, l in REGISTRY}
        assert libs == {"taco", "sparskit", "mkl"}

    @pytest.mark.parametrize("key", sorted(REGISTRY, key=str))
    def test_every_entry_correct(self, key):
        fn = REGISTRY[key]
        src = CSR if key[0].startswith("CSR") else COO
        out = fn(src)
        out.check()
        assert dense_equal(out.to_dense(), DENSE)


class TestTacoStyle:
    def test_coo_to_csr_handles_unsorted(self):
        out = taco_style.coo_to_csr(shuffled(COO, seed=1))
        # Row grouping is correct even from unsorted input.
        assert out.rowptr == CSR.rowptr
        assert dense_equal(out.to_dense(), DENSE)

    def test_csr_to_dia_matches_direct(self):
        a = taco_style.coo_to_dia(COO)
        b = taco_style.csr_to_dia(CSR)
        assert a.off == b.off
        assert a.data == b.data

    def test_dia_offsets_sorted(self):
        out = taco_style.coo_to_dia(COO)
        assert out.off.tolist() == sorted(out.off)


class TestSparskitStyle:
    def test_coocsr_rowptr_shift_idiom(self):
        out = sparskit_style.coocsr(COO)
        assert out.rowptr[0] == 0
        assert out.rowptr[-1] == COO.nnz

    def test_coocsc_via_intermediary(self):
        direct = taco_style.coo_to_csc(COO)
        via_csr = sparskit_style.coocsc(COO)
        assert via_csr.colptr == direct.colptr
        assert via_csr.row == direct.row

    def test_csrdia_exact(self):
        out = sparskit_style.csrdia(CSR)
        out.check()
        assert dense_equal(out.to_dense(), DENSE)


class TestMklStyle:
    def test_sorting_normalizes_unsorted_input(self):
        out = mkl_style.coo_to_csr(shuffled(COO, seed=2))
        out.check()  # canonical order guaranteed
        assert dense_equal(out.to_dense(), DENSE)

    def test_csc_from_unsorted(self):
        out = mkl_style.coo_to_csc(shuffled(COO, seed=3))
        out.check()
        assert dense_equal(out.to_dense(), DENSE)

    def test_dia_via_csr(self):
        out = mkl_style.coo_to_dia(COO)
        out.check()
        assert dense_equal(out.to_dense(), DENSE)


class TestHicoo:
    def make_tensor(self, nnz=80, seed=0):
        return synthetic_tensor3d((32, 24, 16), nnz, seed=seed)

    def test_blocked_equals_whole_tensor_sort(self):
        t = self.make_tensor(seed=1)
        blocked = blocked_morton_sort(t, block_bits=3)
        whole = whole_tensor_morton_sort(t)
        assert (blocked.row, blocked.col, blocked.z, blocked.val) == (
            whole.row, whole.col, whole.z, whole.val,
        )

    @pytest.mark.parametrize("bits", [1, 2, 4, 6])
    def test_any_block_size_valid(self, bits):
        t = self.make_tensor(seed=2)
        out = blocked_morton_sort(t, block_bits=bits)
        out.check()
        assert out.to_dict() == t.to_dict()

    def test_invalid_block_bits(self):
        with pytest.raises(ValueError):
            blocked_morton_sort(self.make_tensor(), block_bits=0)

    def test_preserves_nnz(self):
        t = self.make_tensor(seed=3)
        assert blocked_morton_sort(t).nnz == t.nnz
