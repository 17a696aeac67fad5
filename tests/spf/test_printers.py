"""Unit tests for expression/constraint printing and the AST printers."""

import pytest

from repro.ir import Mul, Sym, UFCall, Var, equals, less, less_equal, parse_expr
from repro.spf import (
    ForLoop,
    Guard,
    LetEq,
    Program,
    PythonPrinter,
    Comment,
    SymbolTable,
)
from repro.spf import statements as st
from repro.spf.codegen.c_emit import emit_c
from repro.spf.codegen.printers import ExprPrinter


SYMTAB = SymbolTable(functions=["MORTON"])
PY = ExprPrinter(SYMTAB)
i = Var("i")


def f(*args):
    """A statement that prints as the call ``f.insert(args...)``."""
    return st.Insert("f", args)


class TestSymbolTable:
    def test_default_is_array(self):
        assert SymbolTable().kind_of("anything") == "array"

    def test_registered_kinds(self):
        st = SymbolTable(arrays=["rowptr"], functions=["MORTON"], objects=["P"])
        assert st.kind_of("rowptr") == "array"
        assert st.kind_of("MORTON") == "func"
        assert st.kind_of("P") == "object"

    def test_conflicting_registration_rejected(self):
        with pytest.raises(ValueError):
            SymbolTable(arrays=["f"], functions=["f"])


class TestExprPrinting:
    def test_affine(self):
        assert PY.expr(parse_expr("2 * i + N - 3", ["i"])) == \
            "2 * i + N - 3"

    def test_uf_as_array(self):
        e = UFCall("rowptr", [Var("i") + 1]).as_expr()
        assert PY.expr(e) == "rowptr[i + 1]"

    def test_uf_as_function(self):
        e = UFCall("MORTON", [Var("i"), Var("j")]).as_expr()
        assert PY.expr(e) == "MORTON(i, j)"

    def test_multi_arg_array_python(self):
        e = UFCall("table", [Var("i"), Var("j")]).as_expr()
        assert PY.expr(e) == "table[i, j]"

    def test_multi_arg_array_c(self):
        # C indexes each array with one subscript; it refuses the rest.
        read = st.Scatter("x", (0,), UFCall("table", [Var("i"), Var("j")]))
        with pytest.raises(st.UnsupportedStatement,
                           match=r"multi-index access table\(i, j\)"):
            c_unit(read)

    def test_mul_atom(self):
        e = Mul(Sym("ND"), Var("ii")).as_expr() + Var("d")
        assert PY.expr(e) == "d + ND * (ii)"

    def test_constant(self):
        assert PY.expr(parse_expr("0")) == "0"


class TestConstraintPrinting:
    def test_negative_terms_move_right(self):
        c = less_equal(UFCall("rowptr", [Var("i")]), Var("k"))
        assert PY.constraint(c) == "k >= rowptr[i]"

    def test_equality(self):
        c = equals(Var("j"), UFCall("col", [Var("k")]))
        text = PY.constraint(c)
        assert "==" in text
        assert "j" in text and "col[k]" in text

    def test_strict_constant_offset(self):
        c = less(Var("i"), Sym("N"))  # i < N  =>  N - i - 1 >= 0
        assert PY.constraint(c) == "N >= i + 1"


class TestPythonPrinter:
    def test_loop_bounds_single(self):
        loop = ForLoop("i", [parse_expr("0")], [Sym("N") - 1], [f(i)])
        text = PythonPrinter(SYMTAB).print(loop)
        assert text == "for i in range(0, N):\n    f.insert(i)"

    def test_loop_bounds_multiple(self):
        loop = ForLoop(
            "i", [parse_expr("0"), Sym("L")], [Sym("N") - 1, Sym("M")],
            [f(i)],
        )
        text = PythonPrinter(SYMTAB).print(loop)
        assert "range(max(0, L), min(N, M + 1))" in text

    def test_guard(self):
        guard = Guard([equals(Var("i"), Sym("N"))], [f()])
        text = PythonPrinter(SYMTAB).print(guard)
        assert text.startswith("if (i == N):")

    def test_empty_body_pass(self):
        loop = ForLoop("i", [parse_expr("0")], [parse_expr("3")], [])
        assert PythonPrinter(SYMTAB).print(loop).endswith("pass")

    def test_let_and_comment(self):
        prog = Program([Comment("phase 1"), LetEq("j", Var("i") + 1)])
        text = PythonPrinter(SYMTAB).print(prog)
        assert "# phase 1" in text
        assert "j = i + 1" in text

    def test_multiline_statement_indented(self):
        loop = ForLoop("i", [parse_expr("0")], [parse_expr("3")],
                       [st.BucketFill("k", "fill", i)])
        lines = PythonPrinter(SYMTAB).print(loop).splitlines()
        assert lines[1] == "    k = fill[i]"
        assert lines[2] == "    fill[i] = k + 1"

    def test_accumulate_parenthesizes_compound_factors(self):
        a, statement = UFCall("a", [i]), PythonPrinter(SYMTAB).statement
        assert statement(st.Accumulate("y", (i,), (a, i + 1))) == \
            "y[i] += a[i] * (i + 1)"
        assert statement(st.Alloc("t", None, floating=True)) == "t = 0.0"
        assert statement(st.Accumulate("t", (), (a,))) == "t += a[i]"


def c_unit(*nodes) -> str:
    """The C unit of a program that fills the array ``x``."""
    program = Program([st.Alloc("x", Sym("N")), *nodes])
    return emit_c(program, "t", ["N", "L", "M"], ["x"], SYMTAB).c_source


class TestCPrinter:
    """The C tier's printer, :func:`~repro.spf.codegen.c_emit.emit_c`."""

    def test_loop(self):
        loop = ForLoop("i", [parse_expr("0")], [Sym("N") - 1],
                       [st.Scatter("x", (i,), 1)])
        text = c_unit(loop)
        assert "for (v_i = 0; v_i <= v_N - 1; v_i++) {" in text
        assert "        v_x[v_i] = 1;\n    }\n" in text

    def test_semicolon_not_duplicated(self):
        text = c_unit(st.Scatter("x", (0,), 1))
        assert "\n    v_x[0] = 1;\n" in text

    def test_nested_min_max(self):
        loop = ForLoop(
            "i", [parse_expr("0"), Sym("L")], [Sym("N"), Sym("M")],
            [st.Scatter("x", (i,), 1)],
        )
        text = c_unit(loop)
        assert "v_i = rt_max2(0, v_L)" in text
        assert "v_i <= rt_min2(v_N, v_M)" in text

    def test_guard_uses_and(self):
        guard = Guard(
            [equals(Var("i"), Sym("N")), less(Var("j"), Sym("M"))],
            [st.Scatter("x", (0,), 1)],
        )
        assert "if ((v_i == v_N) && (v_M >= v_j + 1)) {" in c_unit(guard)


class TestForLoopValidation:
    def test_needs_bounds(self):
        with pytest.raises(ValueError):
            ForLoop("i", [], [parse_expr("3")])
        with pytest.raises(ValueError):
            ForLoop("i", [parse_expr("0")], [])

    def test_guard_needs_constraints(self):
        with pytest.raises(ValueError):
            Guard([], [f()])

    def test_header_key_ignores_bound_order(self):
        a = ForLoop("i", [parse_expr("0"), Sym("L")], [Sym("N")])
        b = ForLoop("i", [Sym("L"), parse_expr("0")], [Sym("N")])
        assert a.header_key() == b.header_key()
