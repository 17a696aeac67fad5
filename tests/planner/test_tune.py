"""The parameterized-format auto-tuner."""

import pytest

from repro import convert, dense_equal
from repro.datagen.matrices import (
    banded,
    fem_blocks,
    power_law,
    stencil_offsets,
)
from repro.planner.coststore import CostStore
from repro.planner.stats import matrix_stats
from repro.planner.tune import TuneError, candidates_for, tune


@pytest.fixture()
def store(tmp_path):
    return CostStore(tmp_path / "tune-costs.json")


class TestCandidates:
    def test_bcsr_blocks_capped_by_dims(self):
        stats = matrix_stats(banded(4, 4, [0, 1], seed=0))
        viable, rejected = candidates_for("BCSR", stats)
        assert all(c.block <= 4 for c in viable)
        assert any("exceeds matrix dimensions" in r for r in rejected.values())

    def test_block_one_never_enumerated(self):
        # Case 6 needs a non-trivial affine decomposition; block 1 is
        # excluded at the source (BLOCK_CANDIDATES starts at 2).
        stats = matrix_stats(fem_blocks(40, block=4, seed=0))
        viable, _ = candidates_for("BCSR", stats)
        assert all(c.block >= 2 for c in viable)

    def test_dia_rejected_over_budget(self):
        stats = matrix_stats(power_law(128, 128, nnz=300, seed=1))
        assert stats.dia_padding > 4
        viable, rejected = candidates_for("DIA", stats, budget=4.0)
        assert viable == []
        assert "DIA" in rejected

    def test_dia_linear_and_binary_within_budget(self):
        stats = matrix_stats(banded(64, 64, stencil_offsets(5), seed=0))
        viable, _ = candidates_for("DIA", stats)
        labels = {c.label for c in viable}
        assert labels == {"DIA linear-search", "DIA binary-search"}

    def test_unknown_family(self):
        stats = matrix_stats(banded(8, 8, [0], seed=0))
        with pytest.raises(TuneError):
            candidates_for("CSR", stats)


class TestTune:
    def test_deterministic_without_measurement(self, store):
        coo = fem_blocks(36, block=3, seed=2)
        runs = [
            tune(coo, "BCSR", measure=False, store=store, seed=s)
            for s in (0, 1, 2)
        ]
        orders = [
            [c.candidate.label for c in r.candidates] for r in runs
        ]
        assert orders[0] == orders[1] == orders[2]
        assert runs[0].measured_runs == 0

    def test_predicted_ranking_prefers_native_block(self, store):
        # Block 7 doesn't divide the other candidate sizes, so every
        # non-native tile straddles block boundaries and loses fill.
        coo = fem_blocks(49, block=7, seed=3)
        result = tune(coo, "BCSR", measure=False, store=store)
        assert result.best.candidate.block == 7

    def test_measured_confirmation_prunes_to_top_k(self, store):
        coo = fem_blocks(36, block=3, seed=4)
        result = tune(coo, "BCSR", store=store, top_k=2, repeats=1)
        measured = [c for c in result.candidates if c.measured_runs]
        assert len(measured) == 2
        assert result.best in measured

    def test_warm_store_skips_measurement(self, store):
        coo = banded(64, 64, stencil_offsets(9), seed=5)
        cold = tune(coo, "DIA", store=store, repeats=1)
        assert cold.measured_runs > 0
        warm = tune(coo, "DIA", store=store, repeats=1)
        assert warm.measured_runs == 0
        assert all(c.learned for c in warm.candidates if c.seconds is not None)
        assert warm.best.candidate.label == cold.best.candidate.label

    def test_learned_costs_transfer_across_seeds(self, store):
        # Same generator family and scale -> same stats bucket.
        tune(banded(64, 64, stencil_offsets(9), seed=6), "DIA",
             store=store, repeats=1)
        sibling = tune(banded(64, 64, stencil_offsets(9), seed=7), "DIA",
                       store=store, repeats=1)
        assert sibling.measured_runs == 0

    def test_tune_error_when_nothing_viable(self, store, monkeypatch):
        monkeypatch.setenv("REPRO_DIA_BUDGET", "2")
        coo = power_law(128, 128, nnz=300, seed=8)
        with pytest.raises(TuneError):
            tune(coo, "DIA", store=store, measure=False)


class TestTunedDestinationsExecute:
    """Every tuned parameterization must convert correctly, both backends."""

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_bcsr_candidates_convert(self, store, backend):
        coo = fem_blocks(30, block=3, seed=9)
        dense = coo.to_dense()
        result = tune(coo, "BCSR", store=store, measure=False,
                      backend=backend)
        for cand in result.candidates:
            out = convert(coo, cand.candidate.dst, backend=backend,
                          validate="full")
            assert dense_equal(out.to_dense(), dense), cand.candidate.label
            assert out.bsize == cand.candidate.block

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    def test_dia_candidates_convert(self, store, backend):
        coo = banded(32, 32, stencil_offsets(5), seed=10)
        dense = coo.to_dense()
        result = tune(coo, "DIA", store=store, measure=False,
                      backend=backend)
        for cand in result.candidates:
            out = convert(coo, cand.candidate.dst, backend=backend,
                          binary_search=cand.candidate.binary_search,
                          validate="full")
            assert dense_equal(out.to_dense(), dense), cand.candidate.label


def test_compressed_sources_get_both_dia_candidates(store):
    csr = convert(banded(32, 32, stencil_offsets(5), seed=11), "CSR")
    result = tune(csr, "DIA", measure=False, store=store)
    assert {c.candidate.label for c in result.candidates} == {
        "DIA linear-search", "DIA binary-search",
    }
