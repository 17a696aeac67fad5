"""Tests for Matrix Market and .tns file IO."""

import random

import pytest

from repro.io import (
    MatrixMarketError,
    TensorFileError,
    read_dense,
    reads,
    reads_tensor,
    writes,
    writes_tensor,
)
from repro.io.matrix_market import read_matrix, write_matrix
from repro.runtime import COOMatrix, COOTensor3D, dense_equal


SIMPLE_MTX = """%%MatrixMarket matrix coordinate real general
% a comment
3 4 4
1 1 2.5
2 3 -1.0
3 1 7.0
3 4 0.5
"""


class TestReadCoordinate:
    def test_basic(self):
        m = reads(SIMPLE_MTX)
        m.check()
        assert (m.nrows, m.ncols, m.nnz) == (3, 4, 4)
        assert m.to_dense()[0][0] == 2.5
        assert m.to_dense()[2][3] == 0.5

    def test_output_sorted(self):
        text = """%%MatrixMarket matrix coordinate real general
2 2 2
2 2 4.0
1 1 3.0
"""
        m = reads(text)
        assert m.is_sorted_lexicographic()

    def test_pattern_field(self):
        text = """%%MatrixMarket matrix coordinate pattern general
2 2 2
1 2
2 1
"""
        m = reads(text)
        assert m.val.tolist() == [1.0, 1.0]

    def test_integer_field(self):
        text = """%%MatrixMarket matrix coordinate integer general
1 1 1
1 1 7
"""
        assert reads(text).val.tolist() == [7.0]

    def test_symmetric_expansion(self):
        text = """%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 1.0
2 1 2.0
3 2 3.0
"""
        m = reads(text)
        dense = m.to_dense()
        assert dense[0][1] == 2.0 and dense[1][0] == 2.0
        assert dense[1][2] == 3.0 and dense[2][1] == 3.0

    def test_skew_symmetric_expansion(self):
        text = """%%MatrixMarket matrix coordinate real skew-symmetric
2 2 1
2 1 5.0
"""
        dense = reads(text).to_dense()
        assert dense[1][0] == 5.0 and dense[0][1] == -5.0

    def test_duplicates_summed(self):
        text = """%%MatrixMarket matrix coordinate real general
1 1 2
1 1 1.5
1 1 2.5
"""
        assert reads(text).val.tolist() == [4.0]

    def test_bad_header(self):
        with pytest.raises(MatrixMarketError):
            reads("%%NotMatrixMarket x y z w\n1 1 1\n1 1 1.0\n")

    def test_bad_symmetry(self):
        with pytest.raises(MatrixMarketError):
            reads("%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n")

    def test_wrong_count(self):
        text = """%%MatrixMarket matrix coordinate real general
2 2 2
1 1 1.0
"""
        with pytest.raises(MatrixMarketError):
            reads(text)

    def test_out_of_bounds_entry(self):
        text = """%%MatrixMarket matrix coordinate real general
2 2 1
3 1 1.0
"""
        with pytest.raises(MatrixMarketError):
            reads(text)

    def test_missing_size_line(self):
        with pytest.raises(MatrixMarketError):
            reads("%%MatrixMarket matrix coordinate real general\n")


class TestReadDense:
    def test_array_general(self):
        text = """%%MatrixMarket matrix array real general
2 2
1.0
2.0
3.0
4.0
"""
        import io as _io

        dense = read_dense(_io.StringIO(text))
        # Array format is column-major.
        assert dense == [[1.0, 3.0], [2.0, 4.0]]

    def test_array_symmetric(self):
        text = """%%MatrixMarket matrix array real symmetric
2 2
1.0
2.0
3.0
"""
        import io as _io

        dense = read_dense(_io.StringIO(text))
        assert dense == [[1.0, 2.0], [2.0, 3.0]]

    def test_coordinate_rejected(self):
        import io as _io

        with pytest.raises(MatrixMarketError):
            read_dense(_io.StringIO(SIMPLE_MTX))


class TestWrite:
    def test_roundtrip(self):
        rng = random.Random(3)
        dense = [
            [round(rng.uniform(-5, 5), 4) if rng.random() < 0.4 else 0.0
             for _ in range(7)]
            for _ in range(6)
        ]
        original = COOMatrix.from_dense(dense)
        again = reads(writes(original))
        assert dense_equal(again.to_dense(), dense)

    def test_comment_written(self):
        m = COOMatrix.from_dense([[1.0]])
        text = writes(m, comment="generated by repro")
        assert "% generated by repro" in text

    def test_file_roundtrip(self, tmp_path):
        m = COOMatrix.from_dense([[0.0, 1.5], [2.5, 0.0]])
        path = tmp_path / "m.mtx"
        write_matrix(m, path)
        again = read_matrix(path)
        assert dense_equal(again.to_dense(), m.to_dense())

    def test_values_roundtrip_exactly(self):
        m = COOMatrix.from_dense([[0.1 + 0.2]])  # a non-representable float
        assert reads(writes(m)).val == m.val


class TestTensorFile:
    def test_roundtrip(self):
        t = COOTensor3D((3, 4, 5), [0, 2], [1, 3], [4, 0], [1.25, -2.0])
        again = reads_tensor(writes_tensor(t))
        assert again.to_dict() == t.to_dict()

    def test_dims_inferred(self):
        t = reads_tensor("2 3 4 1.0\n")
        assert t.dims == (2, 3, 4)

    def test_dims_explicit(self):
        t = reads_tensor("1 1 1 1.0\n", dims=(5, 5, 5))
        assert t.dims == (5, 5, 5)

    def test_comments_skipped(self):
        t = reads_tensor("# header\n% other\n1 1 1 2.0\n")
        assert t.nnz == 1

    def test_bad_line(self):
        with pytest.raises(TensorFileError):
            reads_tensor("1 2 3\n")

    def test_zero_based_rejected(self):
        with pytest.raises(TensorFileError):
            reads_tensor("0 1 1 1.0\n")

    def test_output_sorted(self):
        t = reads_tensor("2 1 1 1.0\n1 1 1 2.0\n")
        assert t.row.tolist() == [0, 1]
