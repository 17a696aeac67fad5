"""Unit tests for the FloorDiv atom (used by loop tiling)."""

import pytest

from repro.ir import Conjunction, FloorDiv, Sym, Var, equals, greater_equal
from repro.ir.conjunction import _eval_expr
from repro.spf import Program, SymbolTable
from repro.spf import statements as st
from repro.spf.codegen.c_emit import emit_c
from repro.spf.codegen.printers import ExprPrinter


class TestConstruction:
    def test_basic(self):
        fd = FloorDiv(Sym("N") - 1, 4)
        assert fd.denom == 4
        assert fd.numer == Sym("N") - 1

    def test_nonpositive_denominator_rejected(self):
        with pytest.raises(ValueError):
            FloorDiv(Var("i"), 0)
        with pytest.raises(ValueError):
            FloorDiv(Var("i"), -2)

    def test_non_int_denominator_rejected(self):
        with pytest.raises(ValueError):
            FloorDiv(Var("i"), 2.5)

    def test_equality_and_hash(self):
        a = FloorDiv(Var("i") + 1, 3)
        b = FloorDiv(Var("i") + 1, 3)
        assert a == b and hash(a) == hash(b)
        assert a != FloorDiv(Var("i") + 1, 4)

    def test_str(self):
        assert str(FloorDiv(Sym("N") - 1, 8)) == "(N - 1) // 8"


class TestAlgebra:
    def test_var_names_descend(self):
        e = FloorDiv(Var("i") + Sym("N"), 2).as_expr()
        assert e.var_names() == {"i"}
        assert e.sym_names() == {"N"}

    def test_substitution_recurses(self):
        e = FloorDiv(Var("i"), 2).as_expr()
        out = e.substitute_vars({"i": Var("x") + 4})
        assert out == FloorDiv(Var("x") + 4, 2).as_expr()

    def test_arithmetic(self):
        e = FloorDiv(Var("i"), 2) + 1
        assert e.coeff(FloorDiv(Var("i"), 2)) == 1
        assert e.const == 1


class TestEvaluation:
    def test_eval(self):
        e = FloorDiv(Var("i") - 1, 4).as_expr()
        assert _eval_expr(e, {"i": 17}) == 4
        assert _eval_expr(e, {"i": 16}) == 3

    def test_python_floor_semantics_for_negatives(self):
        e = FloorDiv(Var("i"), 4).as_expr()
        assert _eval_expr(e, {"i": -1}) == -1

    def test_in_constraint(self):
        c = greater_equal(FloorDiv(Sym("N"), 2), Var("t"))
        conj = Conjunction([c])
        assert conj.evaluate({"N": 10, "t": 5})
        assert not conj.evaluate({"N": 10, "t": 6})


class TestPrinting:
    def test_python(self):
        e = FloorDiv(Sym("N") - 1, 8).as_expr() + 1
        text = ExprPrinter(SymbolTable()).expr(e)
        assert text == "((N - 1) // 8) + 1"

    def test_c(self):
        # C's `/` truncates toward zero; the C tier floors like Python.
        e = FloorDiv(Sym("N") - 1, 8).as_expr()
        program = Program([st.Alloc("x", e)])
        unit = emit_c(program, "t", ["N"], ["x"], SymbolTable()).c_source
        assert "rt_alloc_i64(RT_FDIV(v_N - 1, 8), &v_x, &v_x__len)" in unit
