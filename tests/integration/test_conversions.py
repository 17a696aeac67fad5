"""End-to-end conversion correctness across every supported direction.

Each test converts a concrete matrix/tensor through the full pipeline
(descriptor -> synthesis -> generated Python -> container) and compares
against the dense reference.
"""

import random

import pytest

from repro import (
    COOMatrix,
    COOTensor3D,
    CSCMatrix,
    CSRMatrix,
    DIAMatrix,
    MortonCOOMatrix,
    MortonCOOTensor3D,
    convert,
    dense_equal,
)
from repro.datagen import shuffled


def random_dense(nrows, ncols, density=0.3, seed=0):
    rng = random.Random(seed)
    return [
        [
            round(rng.uniform(0.5, 9.5), 3) if rng.random() < density else 0.0
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]


DENSE_CASES = [
    ("small", random_dense(6, 7, 0.4, seed=1)),
    ("wide", random_dense(5, 19, 0.25, seed=2)),
    ("tall", random_dense(21, 4, 0.25, seed=3)),
    ("dense-ish", random_dense(8, 8, 0.8, seed=4)),
    ("very-sparse", random_dense(30, 30, 0.02, seed=5)),
    ("single", [[0.0, 0.0], [0.0, 4.0]]),
]

TARGETS_2D = ["CSR", "CSC", "DIA", "MCOO", "SCOO", "COO"]


@pytest.mark.parametrize("case_name,dense", DENSE_CASES,
                         ids=[c[0] for c in DENSE_CASES])
@pytest.mark.parametrize("target", TARGETS_2D)
class TestFromSortedCOO:
    def test_convert_matches_dense(self, case_name, dense, target):
        coo = COOMatrix.from_dense(dense)
        out = convert(coo, target)
        out.check()
        assert dense_equal(out.to_dense(), dense)


@pytest.mark.parametrize("target", TARGETS_2D)
class TestFromUnsortedCOO:
    def test_convert_matches_dense(self, target):
        dense = random_dense(10, 12, 0.3, seed=7)
        coo = shuffled(COOMatrix.from_dense(dense), seed=11)
        assert not coo.is_sorted_lexicographic()
        out = convert(coo, target, assume_sorted=False)
        out.check()
        assert dense_equal(out.to_dense(), dense)


@pytest.mark.parametrize("target", ["CSC", "SCOO", "MCOO", "DIA", "CSR"])
class TestFromCSR:
    def test_convert_matches_dense(self, target):
        dense = random_dense(11, 9, 0.35, seed=8)
        csr = CSRMatrix.from_dense(dense)
        out = convert(csr, target)
        out.check()
        assert dense_equal(out.to_dense(), dense)


@pytest.mark.parametrize("target", ["CSR", "SCOO", "CSC"])
class TestFromCSC:
    def test_convert_matches_dense(self, target):
        dense = random_dense(9, 11, 0.35, seed=9)
        csc = CSCMatrix.from_dense(dense)
        out = convert(csc, target)
        out.check()
        assert dense_equal(out.to_dense(), dense)


@pytest.mark.parametrize("target", ["CSR", "CSC", "SCOO"])
class TestFromDIA:
    def test_convert_preserves_values(self, target):
        dense = random_dense(8, 8, 0.3, seed=10)
        dia = DIAMatrix.from_dense(dense)
        out = convert(dia, target)
        # DIA stores padding zeros; the dense image must still match.
        assert dense_equal(out.to_dense(), dense)


@pytest.mark.parametrize("target", ["SCOO", "CSR", "CSC"])
class TestFromMCOO:
    def test_convert_matches_dense(self, target):
        dense = random_dense(13, 13, 0.2, seed=12)
        mcoo = MortonCOOMatrix.from_coo(COOMatrix.from_dense(dense))
        out = convert(mcoo, target)
        out.check()
        assert dense_equal(out.to_dense(), dense)


class TestDiaBinarySearch:
    def test_matches_linear_search(self):
        dense = random_dense(14, 14, 0.25, seed=13)
        coo = COOMatrix.from_dense(dense)
        linear = convert(coo, "DIA")
        binary = convert(coo, "DIA", binary_search=True)
        assert linear.off == binary.off
        assert linear.data == binary.data


class TestUnoptimizedEquivalence:
    """optimize=False keeps the permutation and reductions; results match."""

    @pytest.mark.parametrize("target", ["CSR", "CSC", "MCOO", "DIA"])
    def test_same_result(self, target):
        dense = random_dense(9, 10, 0.3, seed=14)
        coo = COOMatrix.from_dense(dense)
        fast = convert(coo, target)
        slow = convert(coo, target, optimize=False)
        assert dense_equal(fast.to_dense(), slow.to_dense())

    def test_unoptimized_keeps_permutation(self):
        from repro.formats import csr as csr_fmt, scoo as scoo_fmt
        from repro.synthesis import synthesize

        conv = synthesize(scoo_fmt(), csr_fmt(), optimize=False)
        assert "OrderedList" in conv.source


class Test3DConversions:
    def make_tensor(self, seed=0, nnz=50, dims=(8, 9, 7)):
        rng = random.Random(seed)
        coords = set()
        while len(coords) < nnz:
            coords.add(
                (rng.randrange(dims[0]), rng.randrange(dims[1]),
                 rng.randrange(dims[2]))
            )
        ordered = sorted(coords)
        return COOTensor3D(
            dims,
            [c[0] for c in ordered],
            [c[1] for c in ordered],
            [c[2] for c in ordered],
            [round(rng.uniform(0.5, 9.5), 3) for _ in ordered],
        )

    def test_coo3d_to_mcoo3(self):
        t = self.make_tensor(seed=1)
        out = convert(t, "MCOO3")
        out.check()
        assert out.to_dict() == t.to_dict()

    def test_mcoo3_to_scoo3d(self):
        t = self.make_tensor(seed=2)
        m = MortonCOOTensor3D.from_coo(t)
        out = convert(m, "SCOO3D")
        out.check()
        assert out.to_dict() == t.to_dict()
        assert out.row == t.row and out.col == t.col and out.z == t.z

    def test_mcoo3_matches_reference_sort(self):
        t = self.make_tensor(seed=3)
        out = convert(t, "MCOO3")
        ref = MortonCOOTensor3D.from_coo(t)
        assert (out.row, out.col, out.z, out.val) == \
            (ref.row, ref.col, ref.z, ref.val)


class TestChainedConversions:
    def test_round_trip_chain(self):
        dense = random_dense(10, 10, 0.3, seed=15)
        m = COOMatrix.from_dense(dense)
        for target in ["CSR", "CSC", "SCOO", "DIA", "SCOO", "MCOO", "SCOO"]:
            m = convert(m, target)
            assert dense_equal(m.to_dense(), dense), target

    def test_all_zero_matrix(self):
        dense = [[0.0] * 4 for _ in range(4)]
        coo = COOMatrix.from_dense(dense)
        for target in ["CSR", "CSC", "SCOO"]:
            out = convert(coo, target)
            out.check()
            assert dense_equal(out.to_dense(), dense)

    def test_empty_rows_and_columns(self):
        dense = [
            [0.0, 0.0, 0.0],
            [0.0, 5.0, 0.0],
            [0.0, 0.0, 0.0],
        ]
        coo = COOMatrix.from_dense(dense)
        csr = convert(coo, "CSR")
        assert csr.rowptr.tolist() == [0, 0, 1, 1]
        csc = convert(coo, "CSC")
        assert csc.colptr.tolist() == [0, 0, 1, 1]
