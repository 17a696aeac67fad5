"""Unit tests for the sparse matrix containers."""

import pytest

from repro.runtime import (
    BCSRMatrix,
    COOMatrix,
    CSCMatrix,
    CSRMatrix,
    DIAMatrix,
    ELLMatrix,
    MortonCOOMatrix,
    dense_equal,
)

DENSE = [
    [1.0, 0.0, 2.0, 0.0],
    [0.0, 0.0, 0.0, 0.0],
    [3.0, 4.0, 0.0, 0.0],
    [0.0, 0.0, 5.0, 6.0],
]


class TestDenseEqual:
    def test_equal(self):
        assert dense_equal(DENSE, [row[:] for row in DENSE])

    def test_value_mismatch(self):
        other = [row[:] for row in DENSE]
        other[0][0] = 9.0
        assert not dense_equal(DENSE, other)

    def test_shape_mismatch(self):
        assert not dense_equal(DENSE, DENSE[:-1])
        assert not dense_equal([[1.0]], [[1.0, 0.0]])

    def test_tolerance(self):
        assert dense_equal([[1.0]], [[1.0 + 1e-12]], tol=1e-9)


class TestCOO:
    def test_roundtrip(self):
        coo = COOMatrix.from_dense(DENSE)
        coo.check()
        assert dense_equal(coo.to_dense(), DENSE)
        assert coo.nnz == 6

    def test_from_dense_is_sorted(self):
        assert COOMatrix.from_dense(DENSE).is_sorted_lexicographic()

    def test_sorted_lexicographic(self):
        coo = COOMatrix(2, 2, [1, 0], [0, 1], [2.0, 1.0])
        assert not coo.is_sorted_lexicographic()
        sorted_coo = coo.sorted_lexicographic()
        assert sorted_coo.is_sorted_lexicographic()
        assert dense_equal(sorted_coo.to_dense(), coo.to_dense())

    def test_check_rejects_out_of_bounds(self):
        with pytest.raises(ValueError):
            COOMatrix(2, 2, [2], [0], [1.0]).check()

    def test_check_rejects_duplicates(self):
        with pytest.raises(ValueError):
            COOMatrix(2, 2, [0, 0], [1, 1], [1.0, 2.0]).check()

    def test_check_rejects_ragged_arrays(self):
        with pytest.raises(ValueError):
            COOMatrix(2, 2, [0], [0, 1], [1.0]).check()

    def test_nonzeros_iteration(self):
        coo = COOMatrix.from_dense(DENSE)
        assert list(coo.nonzeros())[0] == (0, 0, 1.0)


class TestMortonCOO:
    def test_from_coo_orders_by_morton(self):
        coo = COOMatrix.from_dense(DENSE)
        mcoo = MortonCOOMatrix.from_coo(coo)
        mcoo.check()
        assert dense_equal(mcoo.to_dense(), DENSE)

    def test_check_rejects_wrong_order(self):
        with pytest.raises(ValueError):
            MortonCOOMatrix(2, 2, [1, 0], [1, 0], [1.0, 2.0]).check()

    def test_from_dense_orders_by_morton(self):
        """from_dense assembles in the MCOO composition's Morton order,
        not COO's row-major one."""
        for dense in (DENSE, [[0.0, 0.0, 1.0, 0.0], [2.0, 0.0, 0.0, 0.0],
                              [0.0] * 4, [0.0] * 4]):
            mcoo = MortonCOOMatrix.from_dense(dense)
            expected = MortonCOOMatrix.from_coo(COOMatrix.from_dense(dense))
            assert type(mcoo) is MortonCOOMatrix
            assert vars(mcoo) == vars(expected)
            assert mcoo.row.typecode == "q" and mcoo.val.typecode == "d"
            mcoo.check()
        assert mcoo.row.tolist() == [1, 0]

    def test_gate_error_names_the_subclass(self):
        from repro import convert
        from repro.errors import UnsortedInputError

        bad = MortonCOOMatrix(4, 4, [0, 1], [2, 0], [1.0, 2.0])
        assert repr(bad) == "MortonCOOMatrix(4x4, nnz=2)"
        with pytest.raises(UnsortedInputError, match="MortonCOOMatrix"):
            convert(bad, "CSR")


class TestCSR:
    def test_roundtrip(self):
        csr = CSRMatrix.from_dense(DENSE)
        csr.check()
        assert dense_equal(csr.to_dense(), DENSE)
        assert csr.rowptr.tolist() == [0, 2, 2, 4, 6]

    def test_check_rejects_bad_rowptr_length(self):
        with pytest.raises(ValueError):
            CSRMatrix(3, 3, [0, 1], [0], [1.0]).check()

    def test_check_rejects_decreasing_rowptr(self):
        with pytest.raises(ValueError):
            CSRMatrix(2, 2, [0, 2, 1], [0, 1], [1.0, 2.0]).check()

    def test_check_rejects_unsorted_columns(self):
        with pytest.raises(ValueError):
            CSRMatrix(1, 3, [0, 2], [2, 0], [1.0, 2.0]).check()

    def test_nonzeros_iteration(self):
        csr = CSRMatrix.from_dense(DENSE)
        assert list(csr.nonzeros()) == list(COOMatrix.from_dense(DENSE).nonzeros())


class TestCSC:
    def test_roundtrip(self):
        csc = CSCMatrix.from_dense(DENSE)
        csc.check()
        assert dense_equal(csc.to_dense(), DENSE)
        assert csc.colptr.tolist() == [0, 2, 3, 5, 6]

    def test_check_rejects_bad_colptr_end(self):
        with pytest.raises(ValueError):
            CSCMatrix(2, 2, [0, 1, 1], [0], [1.0, 2.0]).check()

    def test_check_rejects_unsorted_rows(self):
        with pytest.raises(ValueError):
            CSCMatrix(3, 1, [0, 2], [2, 0], [1.0, 2.0]).check()


class TestDIA:
    def test_roundtrip(self):
        dia = DIAMatrix.from_dense(DENSE)
        dia.check()
        assert dense_equal(dia.to_dense(), DENSE)

    def test_offsets_sorted_unique(self):
        dia = DIAMatrix.from_dense(DENSE)
        assert dia.off.tolist() == sorted(set(dia.off))

    def test_data_layout_is_row_major_by_diagonal(self):
        # data[ND * i + d] per the paper's kd = ND*ii + d access.
        dia = DIAMatrix.from_dense([[1.0, 2.0], [0.0, 3.0]])
        assert dia.off.tolist() == [0, 1]
        assert dia.data.tolist() == [1.0, 2.0, 3.0, 0.0]

    def test_check_rejects_unsorted_offsets(self):
        with pytest.raises(ValueError):
            DIAMatrix(2, 2, [1, 0], [0.0] * 4).check()

    def test_check_rejects_bad_data_length(self):
        with pytest.raises(ValueError):
            DIAMatrix(2, 2, [0], [0.0]).check()

    def test_check_rejects_out_of_range_offset(self):
        with pytest.raises(ValueError):
            DIAMatrix(2, 2, [5], [0.0] * 2).check()


class TestBCSR:
    def test_roundtrip_block2(self):
        bcsr = BCSRMatrix.from_dense(DENSE, bsize=2)
        bcsr.check()
        assert dense_equal(bcsr.to_dense(), DENSE)

    def test_roundtrip_uneven_block(self):
        dense = [[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [4.0, 0.0, 5.0]]
        bcsr = BCSRMatrix.from_dense(dense, bsize=2)
        bcsr.check()
        assert dense_equal(bcsr.to_dense(), dense)

    def test_block_count(self):
        bcsr = BCSRMatrix.from_dense(DENSE, bsize=2)
        assert bcsr.nblockrows == 2
        assert bcsr.nblocks == 4  # every 2x2 block of DENSE has a nonzero

    def test_check_rejects_bad_block_size(self):
        with pytest.raises(ValueError):
            BCSRMatrix(2, 2, 0, [0, 0], [], []).check()


class TestELL:
    def test_roundtrip(self):
        ell = ELLMatrix.from_dense(DENSE)
        ell.check()
        assert dense_equal(ell.to_dense(), DENSE)
        assert ell.width == 2

    def test_padding(self):
        ell = ELLMatrix.from_dense(DENSE)
        # Row 1 is empty: all padding.
        row1 = ell.col[1 * ell.width : 2 * ell.width]
        assert all(c == ELLMatrix.PAD for c in row1)

    def test_check_rejects_wrong_lengths(self):
        with pytest.raises(ValueError):
            ELLMatrix(2, 2, 1, [0], [1.0, 2.0]).check()


class TestEmptyMatrices:
    def test_empty_roundtrips(self):
        empty = [[0.0, 0.0], [0.0, 0.0]]
        for cls in (COOMatrix, CSRMatrix, CSCMatrix):
            m = cls.from_dense(empty)
            m.check()
            assert dense_equal(m.to_dense(), empty)
            assert m.nnz == 0

    def test_empty_dia(self):
        dia = DIAMatrix.from_dense([[0.0, 0.0], [0.0, 0.0]])
        dia.check()
        assert dia.ndiags == 0


class TestTypedCheckErrors:
    """check() raises the structured error hierarchy, not bare ValueError."""

    def test_coo_duplicate_error_carries_evidence(self):
        from repro.errors import DuplicateCoordinateError

        coo = COOMatrix(3, 3, [0, 1, 0], [1, 0, 1], [1.0, 2.0, 3.0])
        with pytest.raises(DuplicateCoordinateError) as exc:
            coo.check()
        assert exc.value.coordinate == (0, 1)
        assert exc.value.positions == (0, 2)

    def test_coo_bounds_error_carries_coordinate(self):
        from repro.errors import BoundsError

        coo = COOMatrix(2, 2, [0, 1], [0, 9], [1.0, 2.0])
        with pytest.raises(BoundsError) as exc:
            coo.check()
        assert exc.value.coordinate == (1, 9)
        assert exc.value.position == 1

    def test_csr_rejects_duplicate_columns_in_row(self):
        from repro.errors import DuplicateCoordinateError

        csr = CSRMatrix(2, 3, [0, 2, 3], [1, 1, 2], [1.0, 2.0, 3.0])
        with pytest.raises(DuplicateCoordinateError):
            csr.check()

    def test_csr_unsorted_columns_is_unsorted_error(self):
        from repro.errors import UnsortedInputError

        csr = CSRMatrix(2, 3, [0, 2, 3], [2, 0, 1], [1.0, 2.0, 3.0])
        with pytest.raises(UnsortedInputError):
            csr.check()

    def test_csc_rejects_duplicate_rows_in_column(self):
        from repro.errors import DuplicateCoordinateError

        csc = CSCMatrix(3, 2, [0, 2, 3], [1, 1, 2], [1.0, 2.0, 3.0])
        with pytest.raises(DuplicateCoordinateError):
            csc.check()

    def test_csc_unsorted_rows_is_unsorted_error(self):
        from repro.errors import UnsortedInputError

        csc = CSCMatrix(3, 2, [0, 2, 3], [2, 0, 1], [1.0, 2.0, 3.0])
        with pytest.raises(UnsortedInputError):
            csc.check()

    def test_first_unsorted_position(self):
        coo = COOMatrix(3, 3, [0, 2, 1], [0, 0, 0], [1.0, 2.0, 3.0])
        assert coo.first_unsorted_position() == 2
        assert COOMatrix.from_dense(DENSE).first_unsorted_position() is None

    def test_check_against_dense_accepts_equal(self):
        CSRMatrix.from_dense(DENSE).check_against_dense(DENSE)

    def test_check_against_dense_rejects_mismatch(self):
        from repro.errors import DenseMismatchError

        other = [row[:] for row in DENSE]
        other[0][0] = 9.0
        with pytest.raises(DenseMismatchError) as exc:
            CSRMatrix.from_dense(DENSE).check_against_dense(other)
        assert exc.value.coordinate == (0, 0)

    def test_check_against_dense_tolerance(self):
        near = [[v + 1e-12 for v in row] for row in DENSE]
        CSRMatrix.from_dense(DENSE).check_against_dense(near, tol=1e-9)


class TestDCSR:
    def test_roundtrip(self):
        from repro.runtime import DCSRMatrix

        dcsr = DCSRMatrix.from_dense(DENSE)
        dcsr.check()
        assert dense_equal(dcsr.to_dense(), DENSE)

    def test_empty_rows_elided(self):
        from repro.runtime import DCSRMatrix

        dcsr = DCSRMatrix.from_dense(DENSE)
        # Row 1 of DENSE is empty and must not appear.
        assert dcsr.rowidx.tolist() == [0, 2, 3]
        assert dcsr.ndrows == 3
        assert dcsr.nnz == 6

    def test_all_empty(self):
        from repro.runtime import DCSRMatrix

        dcsr = DCSRMatrix.from_dense([[0.0, 0.0], [0.0, 0.0]])
        dcsr.check()
        assert dcsr.rowidx.tolist() == [] and dcsr.dptr.tolist() == [0]
        assert dense_equal(dcsr.to_dense(), [[0.0, 0.0], [0.0, 0.0]])

    def test_check_rejects_unsorted_rowidx(self):
        from repro.runtime import DCSRMatrix

        bad = DCSRMatrix(3, 2, [1, 0], [0, 1, 2], [0, 1], [1.0, 2.0])
        with pytest.raises(ValueError):
            bad.check()

    def test_check_rejects_empty_populated_row(self):
        from repro.runtime import DCSRMatrix

        bad = DCSRMatrix(3, 2, [0, 1], [0, 1, 1], [0], [1.0])
        with pytest.raises(ValueError):
            bad.check()


class TestBCSC:
    def test_roundtrip_block2(self):
        from repro.runtime import BCSCMatrix

        bcsc = BCSCMatrix.from_dense(DENSE, 2)
        bcsc.check()
        assert dense_equal(bcsc.to_dense(), DENSE)

    def test_roundtrip_uneven_block(self):
        from repro.runtime import BCSCMatrix

        dense = [[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [4.0, 0.0, 5.0]]
        bcsc = BCSCMatrix.from_dense(dense, 2)
        bcsc.check()
        assert dense_equal(bcsc.to_dense(), dense)

    def test_block_layout_mirrors_bcsr(self):
        from repro.runtime import BCSCMatrix

        bcsr = BCSRMatrix.from_dense(DENSE, bsize=2)
        bcsc = BCSCMatrix.from_dense(DENSE, 2)
        assert bcsc.nblocks == bcsr.nblocks
        # Within-block data stays row-major in both layouts, so the same
        # block holds the same 4 values in the same order.
        assert sorted(map(tuple, zip(*[iter(bcsc.data)] * 4))) == \
            sorted(map(tuple, zip(*[iter(bcsr.data)] * 4)))

    def test_check_rejects_unsorted_block_rows(self):
        from repro.runtime import BCSCMatrix

        bad = BCSCMatrix(4, 2, 2, [0, 2], [1, 0], [1.0] * 8)
        with pytest.raises(ValueError):
            bad.check()
