"""Unit tests for the SPF-IR: schedules, statements, lowering, printing."""

import pytest

from repro.backends import get_backend
from repro.ir import Sym, UFCall, Var
from repro.spf import (
    Computation,
    LoweringError,
    Schedule,
    Stmt,
    SymbolTable,
)
from repro.spf import statements as st
from repro.spf.codegen.c_emit import emit_c

i, j, k = Var("i"), Var("j"), Var("k")
X = st.Alloc("x", 1)


class Points:
    """Records the coordinates of every ``insert`` call, in call order."""

    def __init__(self):
        self.seen = []

    def insert(self, *coords):
        self.seen.append(coords)


class TestSchedule:
    def test_default_shape(self):
        s = Schedule.default(3, ["i", "j"])
        assert s.entries == (3, "i", 0, "j", 0)
        assert s.depth == 2

    def test_static_and_loop_accessors(self):
        s = Schedule([1, "i", 2, "k", 3])
        assert s.static_at(0) == 1
        assert s.loop_var_at(0) == "i"
        assert s.static_at(1) == 2
        assert s.loop_var_at(1) == "k"
        assert s.static_at(2) == 3

    def test_with_static(self):
        s = Schedule.default(0, ["i"]).with_static(1, 7)
        assert s.entries == (0, "i", 7)

    def test_rename_loop_vars(self):
        s = Schedule([0, "i", 0]).rename_loop_vars({"i": "x"})
        assert s.loop_var_at(0) == "x"

    def test_even_length_rejected(self):
        with pytest.raises(ValueError):
            Schedule([0, "i"])

    def test_wrong_types_rejected(self):
        with pytest.raises(ValueError):
            Schedule(["i", 0, "j"])
        with pytest.raises(ValueError):
            Schedule([0, 1, 2])


class TestStmt:
    def test_parses_space_string(self):
        stmt = Stmt(X, "{[i] : 0 <= i < N}")
        assert stmt.space.tuple_vars == ("i",)

    def test_statement_text_rejected(self):
        with pytest.raises(TypeError, match="typed statement"):
            Stmt("x = 1", "{[i] : 0 <= i < N}")

    def test_schedule_depth_must_match(self):
        with pytest.raises(ValueError):
            Stmt(X, "{[i] : 0 <= i < N}", [0, "i", 0, "j", 0])

    def test_schedule_vars_must_match_space(self):
        with pytest.raises(ValueError):
            Stmt(X, "{[i] : 0 <= i < N}", [0, "j", 0])

    def test_rename_tuple_vars_updates_text(self):
        stmt = Stmt(st.Scatter("a", (i,), UFCall("b", [i])),
                    "{[i] : 0 <= i < N}", [0, "i", 0])
        renamed = stmt.rename_tuple_vars({"i": "z"})
        assert renamed.text == "a[z] = b[z]"
        assert renamed.space.tuple_vars == ("z",)
        assert renamed.schedule.loop_var_at(0) == "z"

    def test_rename_is_word_boundary(self):
        stmt = Stmt(st.Scatter("ii", (i,), i + Var("imax")),
                    "{[i] : 0 <= i < N}", [0, "i", 0])
        renamed = stmt.rename_tuple_vars({"i": "q"})
        assert renamed.text == "ii[q] = imax + q"

    def test_phase_preserved_by_rename(self):
        stmt = Stmt(X, "{[i] : 0 <= i < N}", phase=3)
        assert stmt.rename_tuple_vars({"i": "z"}).phase == 3


class TestLowering:
    def test_rectangular_loop(self):
        comp = Computation()
        comp.new_stmt(st.Insert("out", (i,)), "{[i] : 0 <= i < N}")
        code = comp.codegen()
        assert "for i in range(0, N):" in code
        assert "out.insert(i)" in code

    def test_csr_walk_matches_paper(self):
        comp = Computation()
        comp.new_stmt(
            st.Insert("out", (i, j)),
            "{[i,k,j] : 0 <= i < N && rowptr(i) <= k < rowptr(i+1)"
            " && j = col(k)}",
        )
        code = comp.codegen()
        assert "for k in range(rowptr[i], rowptr[i + 1]):" in code
        assert "j = col[k]" in code

    def test_c_output(self):
        comp = Computation()
        comp.new_stmt(st.Alloc("x", Sym("N")), "{[]}")
        comp.new_stmt(st.Scatter("x", (i,), i), "{[i] : 0 <= i < N}")
        code = emit_c(comp.lower(), "t", ["N"], ["x"], SymbolTable()).c_source
        assert "for (v_i = 0; v_i <= v_N - 1; v_i++) {" in code
        assert "v_x[v_i] = v_i;" in code

    def test_zero_arity_statement(self):
        comp = Computation()
        comp.new_stmt(st.Alloc("x", 5), "{[]}")
        assert comp.codegen().strip() == "x = [0] * (5)"

    def test_statement_order_follows_insertion(self):
        comp = Computation()
        comp.new_stmt(st.Alloc("first", 1), "{[]}")
        comp.new_stmt(st.Alloc("second", 1), "{[]}")
        code = comp.codegen()
        assert code.index("first") < code.index("second")

    def test_missing_bound_raises(self):
        comp = Computation()
        comp.new_stmt(st.Scatter("x", (i,), i), "{[i] : 0 <= i}")
        with pytest.raises(LoweringError):
            comp.codegen()

    def test_guard_emitted_for_residual_constraint(self):
        comp = Computation()
        comp.new_stmt(
            st.Insert("out", (i, j)),
            "{[i,j] : 0 <= i < N && 0 <= j < N && i + j = N}",
        )
        code = comp.codegen()
        assert "if (" in code

    def test_guarded_equality_on_uf(self):
        # The DIA linear-search pattern: a loop with a UF guard.
        comp = Computation()
        comp.new_stmt(
            st.Insert("hit", (Var("d"),)),
            "{[n,d] : 0 <= n < NNZ && 0 <= d < ND && off(d) = col(n)}",
        )
        code = comp.codegen()
        assert "for d in range(0, ND):" in code
        assert "off[d] == col[n]" in code

    def test_dead_let_pruned(self):
        comp = Computation()
        comp.new_stmt(
            st.Insert("use", (k,)),
            "{[i,k,j] : 0 <= i < N && 0 <= k < M && j = col(k)}",
        )
        code = comp.codegen()
        assert "j = col[k]" not in code

    def test_live_let_kept(self):
        comp = Computation()
        comp.new_stmt(
            st.Insert("use", (j,)),
            "{[i,k,j] : 0 <= i < N && 0 <= k < M && j = col(k)}",
        )
        code = comp.codegen()
        assert "j = col[k]" in code

    def test_executable_output(self):
        comp = Computation()
        comp.new_stmt(
            st.Insert("out", (i, j)),
            "{[i,k,j] : 0 <= i < N && rowptr(i) <= k < rowptr(i+1)"
            " && j = col(k)}",
        )
        code = comp.codegen()
        env = {"N": 2, "rowptr": [0, 2, 3], "col": [1, 3, 0], "out": Points()}
        exec(code, {}, env)
        assert env["out"].seen == [(0, 1), (0, 3), (1, 0)]


class TestDataSpaces:
    def test_readers_and_writers_tracked(self):
        comp = Computation()
        comp.new_stmt(st.Scatter("a", (i,), 1), "{[i] : 0 <= i < N}",
                      writes=["a"])
        comp.new_stmt(st.Scatter("b", (i,), UFCall("a", [i])),
                      "{[i] : 0 <= i < N}", reads=["a"], writes=["b"])
        spaces = comp.data_spaces()
        assert spaces["a"]["writers"] == ["S0"]
        assert spaces["a"]["readers"] == ["S1"]
        assert spaces["b"]["writers"] == ["S1"]


class TestFunctionWrapper:
    def test_codegen_function_runs(self):
        comp = Computation("double_all")
        comp.new_stmt(st.Alloc("b", Sym("N")), "{[]}", writes=["b"])
        comp.new_stmt(st.Scatter("b", (i,), 2 * UFCall("a", [i])),
                      "{[i] : 0 <= i < N}", reads=["a"], writes=["b"])
        python = get_backend("python")
        source = python.lower(
            comp.lower(), comp.name, ["a", "N"], ["b"], SymbolTable()
        ).source
        namespace = python.namespace()
        exec(source, namespace)
        out = namespace["double_all"]([1, 2, 3], 3)
        assert out == {"b": [2, 4, 6]}
