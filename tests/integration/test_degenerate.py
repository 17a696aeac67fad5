"""Degenerate container shapes through every conversion, both backends.

The boundary cases the fuzzer generates continuously, pinned as explicit
regressions: empty matrices, single rows/columns, fully dense blocks,
single diagonals, and tall/wide rectangles (including rectangular DIA,
whose offset range is asymmetric).
"""

import pytest

from repro import COOMatrix, convert, dense_equal

BACKENDS = ("python", "numpy")
TARGETS = ("CSR", "CSC", "DIA", "SCOO", "MCOO", "BCSR")


def _roundtrip(dense, target, backend):
    coo = COOMatrix.from_dense(dense)
    out = convert(coo, target, backend=backend, validate="full")
    out.check()
    assert dense_equal(out.to_dense(), dense)
    return out


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("target", TARGETS)
class TestDegenerateShapes:
    def test_empty_matrix(self, target, backend):
        _roundtrip([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]], target, backend)

    def test_single_row(self, target, backend):
        _roundtrip([[1.0, 0.0, 2.0, 0.0, 3.0]], target, backend)

    def test_single_column(self, target, backend):
        _roundtrip([[1.0], [0.0], [2.0], [3.0]], target, backend)

    def test_one_by_one(self, target, backend):
        _roundtrip([[4.0]], target, backend)

    def test_fully_dense(self, target, backend):
        dense = [[float(i * 3 + j + 1) for j in range(3)] for i in range(3)]
        _roundtrip(dense, target, backend)

    def test_single_diagonal(self, target, backend):
        dense = [
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 2.0, 0.0],
            [0.0, 0.0, 0.0, 3.0],
            [0.0, 0.0, 0.0, 0.0],
        ]
        _roundtrip(dense, target, backend)

    def test_tall_rectangular(self, target, backend):
        dense = [[0.0, 0.0] for _ in range(7)]
        dense[0][1] = 1.0
        dense[4][0] = 2.0
        dense[6][1] = 3.0
        _roundtrip(dense, target, backend)

    def test_wide_rectangular(self, target, backend):
        dense = [[0.0] * 7 for _ in range(2)]
        dense[0][5] = 1.0
        dense[1][0] = 2.0
        dense[1][6] = 3.0
        _roundtrip(dense, target, backend)


@pytest.mark.parametrize("backend", BACKENDS)
class TestRectangularDIA:
    """DIA offsets span [-(nrows-1), ncols-1]; asymmetric for rectangles."""

    def test_tall_subdiagonal(self, backend):
        dense = [[0.0], [0.0], [0.0], [9.0]]  # offset -3 on a 4x1 matrix
        out = _roundtrip(dense, "DIA", backend)
        assert out.off.tolist() == [-3]

    def test_wide_superdiagonal(self, backend):
        dense = [[0.0, 0.0, 0.0, 8.0]]  # offset +3 on a 1x4 matrix
        out = _roundtrip(dense, "DIA", backend)
        assert out.off.tolist() == [3]

    def test_every_diagonal_of_a_dense_rectangle(self, backend):
        dense = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        out = _roundtrip(dense, "DIA", backend)
        assert out.off.tolist() == [-1, 0, 1, 2]
