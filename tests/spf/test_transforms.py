"""Unit tests for the SPF transformations: dedup, DCE, fusion."""

from repro.ir import Sym, UFCall, Var
from repro.spf import Computation, Stmt
from repro.spf import statements as st
from repro.spf.transforms import (
    apply_all_fusion,
    dead_code_elimination,
    eliminate_redundant_statements,
    fusable_depth,
    fuse,
)


i, x = Var("i"), Var("x")


def put(array, var, value=None):
    """``array[var] = value``, the index itself by default."""
    return st.Scatter(array, (var,), var if value is None else value)


def at(array, var):
    return UFCall(array, [var])


def make(body, space, phase=0):
    return Stmt(body, space, phase=phase)


class TestDedup:
    def test_exact_duplicates_removed(self):
        comp = Computation()
        comp.new_stmt(put("a", i), "{[i] : 0 <= i < N}")
        comp.new_stmt(put("a", i), "{[i] : 0 <= i < N}")
        removed = eliminate_redundant_statements(comp)
        assert len(removed) == 1
        assert len(comp.stmts) == 1

    def test_duplicates_modulo_tuple_names(self):
        comp = Computation()
        comp.new_stmt(put("a", i), "{[i] : 0 <= i < N}")
        comp.new_stmt(put("a", x), "{[x] : 0 <= x < N}")
        removed = eliminate_redundant_statements(comp)
        assert len(removed) == 1

    def test_different_statements_kept(self):
        comp = Computation()
        comp.new_stmt(put("a", i), "{[i] : 0 <= i < N}")
        comp.new_stmt(put("a", i, i + 1), "{[i] : 0 <= i < N}")
        assert eliminate_redundant_statements(comp) == []
        assert len(comp.stmts) == 2

    def test_different_spaces_kept(self):
        comp = Computation()
        comp.new_stmt(put("a", i), "{[i] : 0 <= i < N}")
        comp.new_stmt(put("a", i), "{[i] : 0 <= i < M}")
        assert eliminate_redundant_statements(comp) == []


class TestDCE:
    def test_removes_unread_writer(self):
        comp = Computation()
        comp.new_stmt(put("p", i), "{[i] : 0 <= i < N}")
        comp.new_stmt(put("out", i), "{[i] : 0 <= i < N}")
        removed = dead_code_elimination(comp, live_out=["out"])
        assert [s.writes for s in removed] == [("p",)]
        assert len(comp.stmts) == 1

    def test_keeps_transitive_producers(self):
        comp = Computation()
        comp.new_stmt(put("t", i), "{[i] : 0 <= i < N}")
        comp.new_stmt(put("out", i, at("t", i)), "{[i] : 0 <= i < N}")
        removed = dead_code_elimination(comp, live_out=["out"])
        assert removed == []
        assert len(comp.stmts) == 2

    def test_permutation_elimination_scenario(self):
        # The paper's P removal: an OrderedList populated but never read.
        comp = Computation()
        comp.new_stmt(st.Insert("P", (i,)), "{[i] : 0 <= i < N}")
        comp.new_stmt(put("col2", i, at("col1", i)), "{[i] : 0 <= i < N}")
        removed = dead_code_elimination(comp, live_out=["col2"])
        assert any("P" in s.writes for s in removed)

    def test_body_read_keeps_its_only_producer(self):
        # `out[i] = t[i]` reads t through its body alone; DCE keeps every
        # statement that builds t, so the printed program never reads an
        # undefined t.
        comp = Computation()
        comp.new_stmt(st.Alloc("t", Sym("N")), "{[]}")
        comp.new_stmt(put("t", i, 2 * i), "{[i] : 0 <= i < N}")
        comp.new_stmt(st.Alloc("out", Sym("N")), "{[]}")
        comp.new_stmt(put("out", i, at("t", i)), "{[i] : 0 <= i < N}")
        assert dead_code_elimination(comp, live_out=["out"]) == []
        env = {"N": 3}
        exec(comp.codegen(), {}, env)
        assert env["out"] == [0, 2, 4]

    def test_later_reader_does_not_keep_earlier_writer_of_dead_space(self):
        comp = Computation()
        comp.new_stmt(put("dead", i), "{[i] : 0 <= i < N}")
        comp.new_stmt(put("x", i, at("dead", i)), "{[i] : 0 <= i < N}")
        # x itself is dead, so both go.
        removed = dead_code_elimination(comp, live_out=["unrelated"])
        assert len(removed) == 2


class TestFusableDepth:
    def test_identical_loops_fully_fusable(self):
        a = make(put("x", i), "{[i] : 0 <= i < N}")
        b = make(put("y", i), "{[i] : 0 <= i < N}")
        comp = Computation()
        comp.add_stmt(a)
        comp.add_stmt(b)
        assert fusable_depth(comp.stmts[0], comp.stmts[1]) == 1

    def test_renamed_loops_fusable(self):
        comp = Computation()
        comp.new_stmt(put("x", i), "{[i] : 0 <= i < N}")
        comp.new_stmt(put("y", Var("q")), "{[q] : 0 <= q < N}")
        assert fusable_depth(comp.stmts[0], comp.stmts[1]) == 1

    def test_different_bounds_not_fusable(self):
        comp = Computation()
        comp.new_stmt(put("x", i), "{[i] : 0 <= i < N}")
        comp.new_stmt(put("y", i), "{[i] : 0 <= i < M}")
        assert fusable_depth(comp.stmts[0], comp.stmts[1]) == 0

    def test_phase_barrier_blocks_fusion(self):
        comp = Computation()
        comp.add_stmt(make(put("x", i), "{[i] : 0 <= i < N}", phase=0))
        comp.add_stmt(make(put("y", i, at("x", i)), "{[i] : 0 <= i < N}", phase=1))
        assert fusable_depth(comp.stmts[0], comp.stmts[1]) == 0

    def test_partial_prefix_depth(self):
        comp = Computation()
        comp.new_stmt(put("a", i), "{[i,j] : 0 <= i < N && 0 <= j < M}")
        comp.new_stmt(put("b", i), "{[i,j] : 0 <= i < N && 0 <= j < K}")
        assert fusable_depth(comp.stmts[0], comp.stmts[1]) == 1


class TestFuse:
    def test_fused_statements_share_loop(self):
        comp = Computation()
        comp.new_stmt(put("a", i), "{[i] : 0 <= i < N}")
        comp.new_stmt(put("b", x, at("a", x)), "{[x] : 0 <= x < N}")
        depth = fuse(comp, comp.stmts[0].name, comp.stmts[1].name)
        assert depth == 1
        code = comp.codegen()
        assert code.count("for ") == 1
        assert "b[i] = a[i]" in code

    def test_fusion_preserves_statement_order(self):
        comp = Computation()
        comp.new_stmt(st.Insert("first", (i,)), "{[i] : 0 <= i < N}")
        comp.new_stmt(st.Insert("second", (i,)), "{[i] : 0 <= i < N}")
        fuse(comp, comp.stmts[0].name, comp.stmts[1].name)
        code = comp.codegen()
        assert code.index("first") < code.index("second")

    def test_apply_all_fusion_chains(self):
        comp = Computation()
        for idx in range(4):
            comp.new_stmt(put(f"a{idx}", i), "{[i] : 0 <= i < N}")
        fused = apply_all_fusion(comp)
        assert fused == 3
        assert comp.codegen().count("for ") == 1

    def test_apply_all_fusion_respects_phases(self):
        comp = Computation()
        comp.add_stmt(make(put("a", i), "{[i] : 0 <= i < N}", phase=0))
        comp.add_stmt(make(put("b", i, at("a", i)), "{[i] : 0 <= i < N}", phase=1))
        fused = apply_all_fusion(comp)
        assert fused == 0
        assert comp.codegen().count("for ") == 2

    def test_incompatible_not_fused(self):
        comp = Computation()
        comp.new_stmt(put("a", i), "{[i] : 0 <= i < N}")
        comp.new_stmt(put("b", i), "{[i] : 5 <= i < N}")
        assert apply_all_fusion(comp) == 0

    def test_fused_executable(self):
        comp = Computation()
        comp.new_stmt(put("a", i, 2 * i), "{[i] : 0 <= i < N}")
        comp.new_stmt(put("b", x, at("a", x) + 1), "{[x] : 0 <= x < N}")
        apply_all_fusion(comp)
        env = {"N": 4, "a": [0] * 4, "b": [0] * 4}
        exec(comp.codegen(), {}, env)
        assert env["b"] == [1, 3, 5, 7]

    def test_fusion_renames_loop_variables_simultaneously(self):
        # Joining the second nest renames x -> i and, to avoid the clash,
        # its own i -> i_f0; applied one key at a time, both would end up
        # as i_f0.
        comp = Computation("fused")
        comp.new_stmt(put("out1", i), "{[i] : 0 <= i < N}")
        comp.new_stmt(st.Scatter("out2", (x, i), 10 * x + i),
                      "{[x, i] : 0 <= x < N && 0 <= i < M}")
        assert apply_all_fusion(comp) == 1
        env = {"N": 3, "M": 2, "out1": [None] * 3, "out2": {}}
        exec(comp.codegen(), {}, env)
        assert env["out1"] == [0, 1, 2]
        assert env["out2"] == {(x, i): x * 10 + i
                               for x in range(3) for i in range(2)}
