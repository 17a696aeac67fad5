"""Composed formats on the planner graph and in the auto-tuner.

DCSR and BCSC exist only as level compositions — these tests pin that
composed formats are first-class planner nodes (registrable Dijkstra
sources/destinations) and that registered parameterized families are
tunable with no tuner changes.
"""

import pytest

from repro.planner import PLANNABLE_2D, ConversionPlanner
from repro.planner.stats import matrix_stats
from repro.planner.tune import TUNABLE, TuneError, candidates_for, tune
from repro.runtime import BCSCMatrix, DCSRMatrix, dense_equal

DENSE = [
    [1.0, 0.0, 2.0, 0.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 7.0],
    [3.0, 4.0, 0.0, 5.0, 0.0],
    [0.0, 6.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 8.0, 0.0, 9.0],
]

EXTENDED = PLANNABLE_2D + ("DCSR", "BCSC")


class TestPlannerGraph:
    def test_composed_formats_register_as_nodes(self):
        planner = ConversionPlanner(formats=EXTENDED)
        assert "DCSR" in planner.format_names
        assert planner.plan("DCSR", "MCOO").steps
        assert planner.plan("CSR", "BCSC").steps

    def test_execute_from_dcsr(self):
        planner = ConversionPlanner(formats=EXTENDED)
        out = planner.execute(
            DCSRMatrix.from_dense(DENSE), "MCOO", validate="full"
        )
        assert dense_equal(out.to_dense(), DENSE)

    def test_execute_into_parameterized_bcsc(self):
        planner = ConversionPlanner(formats=EXTENDED)
        out = planner.execute(
            BCSCMatrix.from_dense(DENSE, 2), "BCSR3", validate="full"
        )
        assert dense_equal(out.to_dense(), DENSE)

    def test_source_only_composed_format_is_not_a_destination(self):
        from repro.synthesis import SynthesisError

        planner = ConversionPlanner(formats=EXTENDED)
        with pytest.raises(SynthesisError):
            planner.plan("CSR", "DCSR")


class TestTunerGeneralization:
    def test_bcsc_is_tunable(self):
        assert "BCSC" in TUNABLE

    def test_bcsc_candidates_enumerate_blocks(self):
        stats = matrix_stats(BCSCMatrix.from_dense(DENSE, 2))
        viable, rejected = candidates_for("BCSC", stats)
        assert [c.dst for c in viable] == ["BCSC", "BCSC3", "BCSC4",
                                           "BCSC5"]
        assert all("block exceeds" in r for r in rejected.values())

    def test_tune_picks_a_bcsc_block(self):
        # BCSC's padded blocks cost what BCSR's do: one 5x5 block stores
        # 25 slots for the 9 entries, 2x2 blocks 28, so both pick block 5.
        result = tune(
            DCSRMatrix.from_dense(DENSE), "BCSC", measure=False
        )
        assert result.best.candidate.family == "BCSC"
        assert result.best.candidate.block == 5
        bcsr = tune(DCSRMatrix.from_dense(DENSE), "BCSR", measure=False)
        assert bcsr.best.candidate.block == 5

    def test_unregistered_family_still_rejected(self):
        stats = matrix_stats(BCSCMatrix.from_dense(DENSE, 2))
        with pytest.raises(TuneError):
            candidates_for("CSF", stats)
