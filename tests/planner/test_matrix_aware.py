"""Matrix-aware planning: stats-scaled costs, learned re-ranking."""

import pytest

import repro.obs as obs
from repro import dense_equal, get_conversion
from repro.datagen.matrices import banded, power_law, stencil_offsets
from repro.planner import (
    ConversionPlanner,
    conversion_cost_key,
    convert_via_plan,
    estimate_cost,
    record_measurement,
)
from repro.planner.coststore import CostStore
from repro.planner.stats import matrix_stats
from repro.runtime import BCSRMatrix


@pytest.fixture()
def store(tmp_path):
    return CostStore(tmp_path / "plan-costs.json")


class TestEstimateCostCompat:
    """The stats-less path must reproduce the historical estimates."""

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("pair", [
        ("SCOO", "CSR"), ("SCOO", "DIA"), ("CSR", "CSC"), ("SCOO", "BCSR"),
    ])
    def test_default_equals_explicit_none(self, backend, pair):
        conv = get_conversion(*pair, backend=backend)
        assert estimate_cost(conv) == estimate_cost(conv, None)

    def test_structural_orderings_preserved(self):
        # The original cost-model invariants, now via the new signature.
        fast = get_conversion("SCOO", "CSR")
        permuted = get_conversion("SCOO", "CSR", optimize=False)
        assert estimate_cost(fast, None) < estimate_cost(permuted, None)

    def test_stats_change_the_estimate(self):
        conv = get_conversion("SCOO", "DIA")
        band = matrix_stats(banded(64, 64, stencil_offsets(5), seed=0))
        power = matrix_stats(power_law(64, 64, nnz=300, seed=0))
        assert estimate_cost(conv, band) != estimate_cost(conv, power)
        # Per-matrix costs are workloads, far above structural constants.
        assert estimate_cost(conv, band) > estimate_cost(conv, None)

    def test_dia_cost_scales_with_diagonal_count(self):
        conv = get_conversion("SCOO", "DIA")
        few = matrix_stats(banded(64, 64, stencil_offsets(3), seed=0))
        many = matrix_stats(power_law(64, 64, nnz=few.nnz, seed=0))
        assert many.ndiags > few.ndiags
        assert estimate_cost(conv, many) > estimate_cost(conv, few)


def test_program_features_are_computed_once_per_conversion(monkeypatch):
    # A conversion's lowered program never changes, so a repeated plan
    # reads every edge's cost features from its conversion.
    from repro.formats import dia, scoo
    from repro.synthesis import conversion as module
    from repro.synthesis import synthesize

    calls = []
    features = module.program_features
    monkeypatch.setattr(
        module, "program_features",
        lambda program: calls.append(program) or features(program),
    )
    conv = synthesize(scoo(), dia())
    stats = matrix_stats(banded(64, 64, stencil_offsets(5), seed=0))
    assert estimate_cost(conv) < estimate_cost(conv, stats)
    assert calls == [conv.program]

    coo = banded(64, 64, stencil_offsets(5), seed=0)
    convert_via_plan(coo, "DIA", matrix_aware=True)
    calls.clear()
    convert_via_plan(coo, "DIA", matrix_aware=True)
    assert calls == []


class TestMatrixAwarePlanning:
    def test_stats_none_matches_structural_plan(self, store):
        planner = ConversionPlanner(cost_store=store)
        structural = planner.plan("SCOO", "CSR")
        assert planner.plan("SCOO", "CSR", stats=None) == structural
        assert not structural.matrix_aware

    def test_matrix_aware_plan_carries_stats(self, store):
        planner = ConversionPlanner(cost_store=store)
        stats = matrix_stats(banded(32, 32, stencil_offsets(3), seed=1))
        plan = planner.plan("SCOO", "CSR", stats=stats)
        assert plan.matrix_aware
        assert plan.stats is stats

    def test_learned_costs_flip_the_route(self, store):
        """Seeded measurements re-rank a direct edge into a 2-hop chain."""
        planner = ConversionPlanner(
            ("SCOO", "CSR", "MCOO"), cost_store=store
        )
        coo = banded(32, 32, stencil_offsets(3), seed=2)
        stats = matrix_stats(coo)
        bucket = stats.bucket()

        structural = planner.plan("SCOO", "MCOO")
        assert structural.formats == ("SCOO", "MCOO")

        # Pretend past runs measured the direct conversion as painfully
        # slow on this bucket and the 2-hop chain as fast.
        direct = conversion_cost_key(planner.conversion("SCOO", "MCOO"))
        hop1 = conversion_cost_key(planner.conversion("SCOO", "CSR"))
        hop2 = conversion_cost_key(planner.conversion("CSR", "MCOO"))
        store.record(direct, bucket, 10.0, predicted=1.0)
        store.record(hop1, bucket, 0.001, predicted=1.0)
        store.record(hop2, bucket, 0.001, predicted=1.0)

        aware = planner.plan("SCOO", "MCOO", stats=stats)
        assert aware.formats == ("SCOO", "CSR", "MCOO")
        # Without stats, nothing changes.
        assert planner.plan("SCOO", "MCOO").formats == ("SCOO", "MCOO")

    def test_unmeasured_edges_calibrated_against_learned(self, store):
        planner = ConversionPlanner(cost_store=store)
        stats = matrix_stats(banded(32, 32, stencil_offsets(3), seed=3))
        conv = planner.conversion("SCOO", "CSR")
        # One learned entry for an unrelated conversion sets calibration.
        store.record("elsewhere", "otherbucket", 1.0, predicted=100.0)
        cost = planner.matrix_edge_cost("SCOO", "CSR", stats)
        assert cost == pytest.approx(estimate_cost(conv, stats) * 0.01)


class TestExecuteRecords:
    def test_matrix_aware_execute_learns(self, store):
        planner = ConversionPlanner(cost_store=store)
        coo = banded(32, 32, stencil_offsets(3), seed=4)
        out = planner.execute(coo, "CSR", matrix_aware=True)
        assert dense_equal(out.to_dense(), coo.to_dense())
        assert len(store) >= 1
        entry = store.lookup(
            conversion_cost_key(planner.conversion("SCOO", "CSR")),
            matrix_stats(coo).bucket(),
        )
        assert entry is not None
        assert entry["seconds"] > 0

    def test_structural_execute_does_not_learn(self, store):
        planner = ConversionPlanner(cost_store=store)
        coo = banded(32, 32, stencil_offsets(3), seed=5)
        planner.execute(coo, "CSR", matrix_aware=False)
        assert len(store) == 0

    def test_execute_plan_returns_timings(self, store):
        planner = ConversionPlanner(cost_store=store)
        coo = banded(32, 32, stencil_offsets(3), seed=6)
        plan = planner.plan("SCOO", "CSR", stats=matrix_stats(coo))
        out, timings = planner.execute_plan(plan, coo, original=coo)
        assert dense_equal(out.to_dense(), coo.to_dense())
        assert len(timings) == len(plan.steps)
        assert all(t.seconds > 0 and t.predicted > 0 for t in timings)

    def test_prediction_ratio_metric_observed(self, store):
        conv = get_conversion("SCOO", "CSR")
        stats = matrix_stats(banded(32, 32, stencil_offsets(3), seed=7))
        # First record bootstraps calibration; second observes the ratio.
        record_measurement(store, conv, stats, 0.01)
        record_measurement(store, conv, stats, 0.01)
        metric = obs.METRICS.histogram(
            "repro_cost_prediction_ratio", ""
        )
        snap = metric.snapshot()
        assert sum(s["value"]["count"] for s in snap["samples"]) >= 1


class TestParameterizedSources:
    def test_bcsr3_container_routes_out(self, store):
        planner = ConversionPlanner(cost_store=store)
        dense = banded(12, 12, stencil_offsets(3), seed=8).to_dense()
        container = BCSRMatrix.from_dense(dense, 3)
        out = planner.execute(container, "CSR")
        assert dense_equal(out.to_dense(), dense)

    def test_parameterized_destination_planned(self, store):
        # Tuned formats ("BCSR3") are not graph nodes but must still be
        # reachable as plan endpoints.
        planner = ConversionPlanner(cost_store=store)
        plan = planner.plan("SCOO", "BCSR3")
        assert plan.formats[-1] == "BCSR3"
        coo = banded(12, 12, stencil_offsets(3), seed=10)
        out, _ = planner.execute_plan(plan, coo, original=coo)
        assert out.bsize == 3
        assert dense_equal(out.to_dense(), coo.to_dense())

    def test_bcsr3_matrix_aware(self, store):
        planner = ConversionPlanner(cost_store=store)
        dense = banded(12, 12, stencil_offsets(3), seed=9).to_dense()
        container = BCSRMatrix.from_dense(dense, 3)
        out = planner.execute(container, "CSR", matrix_aware=True)
        assert dense_equal(out.to_dense(), dense)
        assert len(store) >= 1
