"""Tests for Case 6 (affine block decomposition) and BCSR destinations.

The paper's five cases cover Table 1's formats and anticipate more being
added; Case 6 handles ``e = B*x + w`` with ``0 <= w < B``, which is what
blocked layouts need.  These tests pin both the mechanism and end-to-end
correctness of synthesizing *into* BCSR.
"""

import random

import pytest

from repro import BCSRMatrix, COOMatrix, CSRMatrix, convert, dense_equal
from repro.formats import bcsr, container_to_env, csr, mcoo, scoo
from repro.synthesis import synthesize


def random_dense(seed, nrows=11, ncols=13, density=0.3):
    rng = random.Random(seed)
    return [
        [
            round(rng.uniform(0.5, 9.5), 3) if rng.random() < density else 0.0
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]


class TestCase6Mechanism:
    def setup_method(self):
        self.conv = synthesize(scoo(), bcsr(2))

    def test_decomposition_noted(self):
        joined = " ".join(self.conv.notes)
        assert "case 6" in joined
        assert "// 2" in joined and "% 2" in joined

    def test_generated_code_uses_div_mod(self):
        assert "// 2" in self.conv.source
        assert "% 2" in self.conv.source

    def test_unique_rank_permutation(self):
        assert "unique=True" in self.conv.source

    def test_nb_derived_from_distinct_count(self):
        assert "NB = len(P)" in self.conv.source
        assert "NB" in self.conv.returns

    def test_block_ordering_key(self):
        assert "key=lambda i, j: (((i) // 2), ((j) // 2),)" in self.conv.source

    def test_data_sized_by_blocks(self):
        assert "Adst = [0.0] * (4 * NB)" in self.conv.source


class TestBcsrDestinationCorrectness:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reference_assembly(self, seed):
        dense = random_dense(seed)
        coo = COOMatrix.from_dense(dense)
        out = convert(coo, "BCSR")
        out.check()
        assert dense_equal(out.to_dense(), dense)
        ref = BCSRMatrix.from_dense(dense, 2)
        assert out.browptr == ref.browptr
        assert out.bcol == ref.bcol
        assert out.data == ref.data

    def test_block4(self):
        dense = random_dense(41, nrows=17, ncols=10)
        coo = COOMatrix.from_dense(dense)
        conv = synthesize(scoo(), bcsr(4))
        out = conv(row1=coo.row, col1=coo.col, Asrc=coo.val,
                   NR=17, NC=10, NNZ=coo.nnz)
        m = BCSRMatrix(17, 10, 4, out["browptr"], out["bcol"], out["Adst"])
        m.check()
        assert dense_equal(m.to_dense(), dense)

    def test_from_csr(self):
        dense = random_dense(42)
        csrm = CSRMatrix.from_dense(dense)
        out = convert(csrm, "BCSR")
        out.check()
        assert dense_equal(out.to_dense(), dense)

    def test_from_mcoo(self):
        dense = random_dense(43)
        from repro.runtime import MortonCOOMatrix

        m = MortonCOOMatrix.from_coo(COOMatrix.from_dense(dense))
        out = convert(m, "BCSR")
        assert dense_equal(out.to_dense(), dense)

    def test_empty_matrix(self):
        dense = [[0.0] * 4 for _ in range(4)]
        out = convert(COOMatrix.from_dense(dense), "BCSR")
        out.check()
        assert out.nblocks == 0

    def test_single_block(self):
        dense = [[1.0, 2.0], [3.0, 4.0]]
        out = convert(COOMatrix.from_dense(dense), "BCSR")
        assert out.nblocks == 1
        assert out.data.tolist() == [1.0, 2.0, 3.0, 4.0]

    def test_uneven_edge_blocks(self):
        # 3x3 with 2x2 blocks: edge blocks are partial.
        dense = [[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [3.0, 0.0, 4.0]]
        out = convert(COOMatrix.from_dense(dense), "BCSR")
        out.check()
        assert dense_equal(out.to_dense(), dense)

    def test_bcsr_round_trip(self):
        dense = random_dense(44)
        bcsr_m = convert(COOMatrix.from_dense(dense), "BCSR")
        back = convert(bcsr_m, "SCOO")
        # BCSR stores explicit zeros inside blocks; dense images must agree.
        assert dense_equal(back.to_dense(), dense)


class TestCase6DoesNotFireOnSources:
    def test_bcsr_source_unaffected(self):
        conv = synthesize(bcsr(2), csr())
        # The source's block structure stays as iteration, not div/mod.
        assert "browptr[bi]" in conv.source

    def test_plain_formats_unaffected(self):
        conv = synthesize(scoo(), mcoo())
        assert not any("case 6" in n for n in conv.notes)
