"""The one-pass matrix profiler: correctness per container, bucketing."""

import pytest

from repro.datagen.matrices import (
    banded,
    fem_blocks,
    power_law,
    stencil_offsets,
)
from repro.runtime import (
    BCSRMatrix,
    COOMatrix,
    CSCMatrix,
    CSRMatrix,
    DIAMatrix,
    ELLMatrix,
)
from repro.backends.base import storage_slots
from repro.planner.stats import BLOCK_CANDIDATES, matrix_stats
from repro.planner.tune import candidates_for


def _dense(coo):
    return coo.to_dense()


class TestProfiles:
    def test_banded_profile(self):
        coo = banded(64, 64, stencil_offsets(5), seed=1)
        stats = matrix_stats(coo)
        assert stats.nrows == stats.ncols == 64
        assert stats.nnz == coo.nnz
        assert stats.ndiags <= 5
        # Stencil rows are near-uniform: tiny coefficient of variation.
        assert stats.row_cv < 0.25
        assert stats.bandwidth <= max(abs(o) for o in stencil_offsets(5))

    def test_power_law_profile(self):
        coo = power_law(96, 96, nnz=800, seed=2)
        stats = matrix_stats(coo)
        # Skewed degree distribution: many diagonals, high variation.
        assert stats.ndiags > 30
        assert stats.row_cv > 0.5
        # A DIA layout would store over two slots per nonzero.
        assert storage_slots("DIA", stats) / stats.nnz > 2.0

    def test_blocked_profile_prefers_native_block(self):
        coo = fem_blocks(60, block=4, seed=3)
        stats = matrix_stats(coo)
        # The generator's block size fills best among the candidates.
        assert stats.fill(4) == max(
            stats.fill(b) for b in BLOCK_CANDIDATES
        )

    def test_empty_matrix(self):
        stats = matrix_stats(COOMatrix(3, 4, [], [], []))
        assert stats.nnz == 0
        assert stats.density == 0.0
        # No nonzero to pad around: the tuner admits DIA.
        viable, rejected = candidates_for("DIA", stats)
        assert len(viable) == 2 and not rejected
        assert stats.bucket()  # still a usable key


class TestContainerEquivalence:
    """Every container of the same matrix profiles identically."""

    def test_all_containers_agree(self):
        coo = banded(32, 32, stencil_offsets(3), seed=4)
        dense = _dense(coo)
        reference = matrix_stats(COOMatrix.from_dense(dense))
        containers = [
            CSRMatrix.from_dense(dense),
            CSCMatrix.from_dense(dense),
            DIAMatrix.from_dense(dense),
            BCSRMatrix.from_dense(dense, 2),
            BCSRMatrix.from_dense(dense, 3),
            ELLMatrix.from_dense(dense),
        ]
        for container in containers:
            stats = matrix_stats(container)
            assert stats == reference, type(container).__name__

    def test_padded_ell_width_does_not_change_profile(self):
        coo = banded(24, 24, stencil_offsets(3), seed=5)
        dense = _dense(coo)
        natural = matrix_stats(ELLMatrix.from_dense(dense))
        padded = matrix_stats(ELLMatrix.from_dense(dense, width=7))
        assert padded == natural


class TestBuckets:
    def test_stable_across_seeds(self):
        buckets = {
            matrix_stats(banded(128, 128, stencil_offsets(9), seed=s)).bucket()
            for s in range(4)
        }
        assert len(buckets) == 1

    def test_distinguishes_structure(self):
        band = matrix_stats(banded(128, 128, stencil_offsets(9), seed=0))
        power = matrix_stats(power_law(128, 128, nnz=band.nnz, seed=0))
        assert band.bucket() != power.bucket()

    def test_distinguishes_scale(self):
        small = matrix_stats(banded(32, 32, stencil_offsets(5), seed=0))
        large = matrix_stats(banded(512, 512, stencil_offsets(5), seed=0))
        assert small.bucket() != large.bucket()


class TestFillFallback:
    def test_nearest_profiled_block(self):
        coo = fem_blocks(40, block=4, seed=6)
        stats = matrix_stats(coo, blocks=(2, 4))
        # 5 is unprofiled; the nearest profiled size (4) stands in.
        assert stats.fill(5) == stats.fill(4)

    def test_no_profile_defaults_dense(self):
        coo = banded(16, 16, [0], seed=0)
        stats = matrix_stats(coo, blocks=())
        assert stats.fill(3) == 1.0


class TestEllWidthGuard:
    def test_truncating_width_rejected(self):
        dense = [[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]]
        with pytest.raises(ValueError):
            ELLMatrix.from_dense(dense, width=2)
