"""Tests for the multi-step conversion planner."""

import random

import pytest

from repro import (
    COOMatrix,
    ConversionPlanner,
    DIAMatrix,
    convert_via_plan,
    dense_equal,
)
from repro.planner import PLANNABLE_2D, estimate_cost
from repro.synthesis import SynthesisError, synthesize
from repro.formats import csr, dia, scoo


def random_dense(seed=0):
    rng = random.Random(seed)
    return [
        [rng.choice([0, 0, 0, 1, 2]) * 1.0 for _ in range(12)]
        for _ in range(10)
    ]


class TestCostModel:
    def test_fast_path_cheaper_than_permuted(self):
        fast = synthesize(scoo(), csr())
        permuted = synthesize(scoo(), csr(), optimize=False)
        assert estimate_cost(fast) < estimate_cost(permuted)

    def test_linear_search_costlier_than_binary(self):
        linear = synthesize(scoo(), dia())
        binary = synthesize(scoo(), dia(), binary_search=True)
        assert estimate_cost(binary) < estimate_cost(linear)

    def test_positive(self):
        assert estimate_cost(synthesize(scoo(), csr())) > 0


class TestPlanning:
    def setup_method(self):
        self.planner = ConversionPlanner()

    def test_direct_edge_wins_for_cheap_conversions(self):
        plan = self.planner.plan("SCOO", "CSR")
        assert plan.formats == ("SCOO", "CSR")
        assert len(plan.steps) == 1

    def test_identity_plan_is_empty_or_direct(self):
        plan = self.planner.plan("CSR", "CSR")
        # Either a no-op (already there) or a direct same-format copy.
        assert plan.formats[0] == "CSR" and plan.formats[-1] == "CSR"

    def test_every_pair_plannable(self):
        source_only = {"ELL"}
        for src in PLANNABLE_2D:
            for dst in PLANNABLE_2D:
                if dst in source_only and dst != src:
                    with pytest.raises(SynthesisError):
                        self.planner.plan(src, dst)
                    continue
                if src in source_only and dst == src:
                    continue  # no self-copy for source-only formats
                plan = self.planner.plan(src, dst)
                assert plan.formats[0] == src
                assert plan.formats[-1] == dst

    def test_3d_planning_includes_csf_source(self):
        from repro.planner import PLANNABLE_3D

        planner = ConversionPlanner(PLANNABLE_3D)
        plan = planner.plan("CSF", "MCOO3")
        assert plan.formats[0] == "CSF"
        assert plan.formats[-1] == "MCOO3"
        with pytest.raises(SynthesisError):
            planner.plan("COO3D", "CSF")

    def test_total_cost_is_sum(self):
        plan = self.planner.plan("MCOO", "DIA")
        assert plan.total_cost == pytest.approx(
            sum(s.cost for s in plan.steps)
        )

    def test_unknown_format(self):
        with pytest.raises(KeyError):
            self.planner.plan("ESB", "CSR")


class TestExecution:
    def test_execute_single_step(self):
        dense = random_dense(1)
        out = convert_via_plan(COOMatrix.from_dense(dense), "CSR")
        out.check()
        assert dense_equal(out.to_dense(), dense)

    def test_execute_every_destination(self):
        dense = random_dense(2)
        coo = COOMatrix.from_dense(dense)
        for dst in ("CSR", "CSC", "DIA", "MCOO", "SCOO"):
            out = convert_via_plan(coo, dst)
            assert dense_equal(out.to_dense(), dense), dst

    def test_execute_from_dia(self):
        dense = random_dense(3)
        dia_m = DIAMatrix.from_dense(dense)
        planner = ConversionPlanner()
        for dst in ("CSR", "SCOO", "MCOO", "DIA"):
            out = planner.execute(dia_m, dst)
            assert dense_equal(out.to_dense(), dense), dst

    def test_plan_caching(self):
        planner = ConversionPlanner()
        planner.plan("SCOO", "CSR")
        first = dict(planner._edges)
        planner.plan("SCOO", "CSR")
        assert planner._edges == first  # no re-synthesis

    @pytest.mark.parametrize("rank", [2, 3])
    def test_source_of_another_rank_names_a_working_remedy(self, rank):
        from repro import COOTensor3D
        from repro.planner import (
            PLANNABLE_3D,
            default_planner,
            default_planner_3d,
        )

        if rank == 3:
            source, dst = COOTensor3D(
                (2, 2, 3), [0, 0, 1], [0, 1, 1], [2, 0, 1], [1.0, 2.0, 3.0]
            ), "MCOO3"
            wrong, formats, planner = ConversionPlanner(), PLANNABLE_3D, \
                default_planner_3d
        else:
            source, dst = COOMatrix.from_dense(random_dense(5)), "CSR"
            wrong, formats, planner = ConversionPlanner(PLANNABLE_3D), \
                PLANNABLE_2D, default_planner
        with pytest.raises(SynthesisError) as exc:
            wrong.execute(source, dst)
        message = str(exc.value)
        assert f"ConversionPlanner(PLANNABLE_{rank}D, ...)" in message
        assert f"{planner.__name__}()" in message
        assert "convert_via_plan" in message
        # Each call the message names converts the source.
        for out in (
            ConversionPlanner(formats).execute(source, dst),
            planner().execute(source, dst),
            convert_via_plan(source, dst),
        ):
            assert out.to_dict() == source.to_dict()

    def test_formats_must_not_be_a_bare_string(self):
        with pytest.raises(TypeError, match="SCOO3D"):
            ConversionPlanner("SCOO3D")


class TestDefaultPlannerSingletons:
    def test_concurrent_first_calls_share_one_planner(self):
        # Regression: two threads racing the first default_planner() call
        # used to each build a planner, and the loser's memoized edge
        # costs were thrown away.
        import threading

        from repro import planner as planner_mod

        with planner_mod._PLANNER_LOCK:
            saved = dict(planner_mod._DEFAULT_PLANNERS)
            planner_mod._DEFAULT_PLANNERS.clear()
        try:
            barrier = threading.Barrier(8)
            seen = []

            def grab():
                barrier.wait()
                seen.append(planner_mod.default_planner())

            threads = [threading.Thread(target=grab) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert len(seen) == 8
            assert all(p is seen[0] for p in seen)
        finally:
            with planner_mod._PLANNER_LOCK:
                planner_mod._DEFAULT_PLANNERS.clear()
                planner_mod._DEFAULT_PLANNERS.update(saved)

    def test_backend_instances_share_the_string_singleton(self):
        from repro.backends import get_backend
        from repro.planner import default_planner

        assert default_planner(get_backend("numpy")) is default_planner(
            "numpy"
        )

    def test_disabled_passes_thread_into_synthesis(self):
        planner = ConversionPlanner(
            ["SCOO", "CSR"], disabled_passes=("fusion",)
        )
        conv = planner.conversion("SCOO", "CSR")
        assert all(
            "into shared loops" not in note for note in conv.notes
        )
