"""Tests for the user-directed affine transformations."""

import pytest

from repro.ir import Var
from repro.spf import Computation
from repro.spf import statements as st
from repro.spf.transforms import (
    TransformError,
    apply_all_fusion,
    full_unroll,
    interchange,
    shift,
    skew,
    tile,
)


i, j, k = Var("i"), Var("j"), Var("k")


def out(*coords):
    """``out.insert(coords...)``: records one point per iteration."""
    return st.Insert("out", coords)


class Points:
    """Records every ``insert`` in call order; one coordinate unwrapped."""

    def __init__(self):
        self.seen = []

    def insert(self, *coords):
        self.seen.append(coords[0] if len(coords) == 1 else coords)


def points(comp, env):
    local = {**env, "out": Points()}
    exec(comp.codegen(), {}, local)
    return local["out"].seen


class TestInterchange:
    def test_order_changes_coverage_does_not(self):
        comp = Computation()
        s = comp.new_stmt(out(i, j),
                          "{[i,j] : 0 <= i < 3 && 0 <= j < 2}")
        before = points(comp, {})
        interchange(comp, s.name, "i", "j")
        after = points(comp, {})
        assert sorted(before) == sorted(after)
        assert before != after  # column-major now

    def test_code_shape(self):
        comp = Computation()
        s = comp.new_stmt(out(i, j), "{[i,j] : 0 <= i < M && 0 <= j < N}")
        interchange(comp, s.name, "i", "j")
        code = comp.codegen()
        assert code.index("for j") < code.index("for i")

    def test_triangular_interchange_rejected(self):
        # j's bound depends on i: interchanging breaks scannability.
        comp = Computation()
        s = comp.new_stmt(out(i, j), "{[i,j] : 0 <= i < N && 0 <= j <= i}")
        with pytest.raises(TransformError):
            interchange(comp, s.name, "i", "j")

    def test_unknown_statement(self):
        comp = Computation()
        comp.new_stmt(out(i), "{[i] : 0 <= i < N}")
        with pytest.raises(TransformError):
            interchange(comp, "nope", "i", "i")

    def test_unknown_var(self):
        comp = Computation()
        s = comp.new_stmt(out(i), "{[i] : 0 <= i < N}")
        with pytest.raises(TransformError):
            interchange(comp, s.name, "i", "q")


class TestShift:
    def test_semantics_preserved(self):
        comp = Computation()
        s = comp.new_stmt(out(i, 3 * i + 1), "{[i] : 0 <= i < 5}")
        shift(comp, s.name, "i", 7)
        assert points(comp, {}) == [(n, 3 * n + 1) for n in range(5)]

    def test_loop_range_moved(self):
        comp = Computation()
        s = comp.new_stmt(out(i), "{[i] : 0 <= i < 4}")
        shift(comp, s.name, "i", 10)
        assert "range(10, 14)" in comp.codegen()

    def test_negative_shift(self):
        comp = Computation()
        s = comp.new_stmt(out(i), "{[i] : 5 <= i < 9}")
        shift(comp, s.name, "i", -5)
        assert "range(0, 4)" in comp.codegen()
        assert points(comp, {}) == [5, 6, 7, 8]


class TestSkew:
    def test_semantics_preserved(self):
        comp = Computation()
        s = comp.new_stmt(out(i, j),
                          "{[i,j] : 0 <= i < 4 && 0 <= j < 4}")
        skew(comp, s.name, "j", "i", 2)
        expected = sorted((i, j) for i in range(4) for j in range(4))
        assert sorted(points(comp, {})) == expected

    def test_inner_must_be_inner(self):
        comp = Computation()
        s = comp.new_stmt(out(i, j), "{[i,j] : 0 <= i < N && 0 <= j < N}")
        with pytest.raises(TransformError):
            skew(comp, s.name, "i", "j", 1)


class TestTile:
    def test_exact_coverage_with_partial_tiles(self):
        comp = Computation()
        s = comp.new_stmt(out(i), "{[i] : 0 <= i < N}")
        tile(comp, s.name, "i", 4)
        for n in (1, 4, 7, 16, 17):
            assert points(comp, {"N": n}) == list(range(n))

    def test_two_loops_emitted(self):
        comp = Computation()
        s = comp.new_stmt(out(i), "{[i] : 0 <= i < N}")
        tile(comp, s.name, "i", 8)
        code = comp.codegen()
        assert "for i_t in" in code
        assert "for i_i in" in code
        assert "// 8" in code

    def test_tile_inner_of_nest(self):
        comp = Computation()
        s = comp.new_stmt(out(i, j),
                          "{[i,j] : 0 <= i < 3 && 0 <= j < N}")
        tile(comp, s.name, "j", 2)
        expected = sorted((i, j) for i in range(3) for j in range(5))
        assert sorted(points(comp, {"N": 5})) == expected

    def test_size_validation(self):
        comp = Computation()
        s = comp.new_stmt(out(i), "{[i] : 0 <= i < N}")
        with pytest.raises(TransformError):
            tile(comp, s.name, "i", 1)

    def test_nonzero_lower_bound_rejected(self):
        comp = Computation()
        s = comp.new_stmt(out(i), "{[i] : 3 <= i < N}")
        with pytest.raises(TransformError):
            tile(comp, s.name, "i", 4)


class TestFullUnroll:
    def test_replicates_body(self):
        comp = Computation()
        s = comp.new_stmt(out(i, k),
                          "{[i,k] : 0 <= i < N && 0 <= k < 3}")
        replacements = full_unroll(comp, s.name, "k")
        assert len(replacements) == 3
        got = points(comp, {"N": 2})
        assert sorted(got) == sorted((i, k) for i in range(2) for k in range(3))

    def test_unrolled_loops_refusable(self):
        comp = Computation()
        s = comp.new_stmt(out(k), "{[k] : 0 <= k < 4}")
        full_unroll(comp, s.name, "k")
        assert "for " not in comp.codegen()
        assert points(comp, {}) == [0, 1, 2, 3]

    def test_unroll_then_fuse(self):
        comp = Computation()
        s = comp.new_stmt(out(i, k),
                          "{[i,k] : 0 <= i < N && 0 <= k < 2}")
        full_unroll(comp, s.name, "k")
        fused = apply_all_fusion(comp)
        assert fused == 1
        assert comp.codegen().count("for ") == 1

    def test_symbolic_bound_rejected(self):
        comp = Computation()
        s = comp.new_stmt(out(k), "{[k] : 0 <= k < N}")
        with pytest.raises(TransformError):
            full_unroll(comp, s.name, "k")

    def test_huge_trip_count_refused(self):
        comp = Computation()
        s = comp.new_stmt(out(k), "{[k] : 0 <= k < 5000}")
        with pytest.raises(TransformError):
            full_unroll(comp, s.name, "k")


class TestComposition:
    def test_tile_then_interchange_tiles(self):
        comp = Computation()
        s = comp.new_stmt(out(i, j), "{[i,j] : 0 <= i < 8 && 0 <= j < 8}")
        tile(comp, s.name, "j", 4)
        # Hoist the tile loop over the i loop (classic tiling step).
        interchange(comp, s.name, "i", "j_t")
        got = points(comp, {})
        assert sorted(got) == sorted((i, j) for i in range(8) for j in range(8))
        code = comp.codegen()
        assert code.index("for j_t") < code.index("for i")
