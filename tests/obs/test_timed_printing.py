"""Timed printing: the deep-trace variant of the python and numpy printers.

Under deep tracing a conversion runs a variant printed from its lowered
program: each top-level node is bracketed by ``__OBS_CLOCK()`` reads and
reported through ``__OBS_STMT(index, label, start, end)``, labelled from
its statement kinds and targets.
"""

import itertools

import pytest

from repro.backends import get_backend
from repro.ir import Sym, UFCall, Var
from repro.runtime.executor import compile_inspector
from repro.spf import ForLoop, Program, SymbolTable, emit_python_function
from repro.spf import statements as st
from repro.spf.codegen.printers import span_label
from repro.spf.codegen.vectorize import emit_numpy_function
from repro.synthesis import synthesize
from tests.sweep import sweep

DENSE_2D = [
    [1.0, 0.0, 2.0, 0.0, 0.0, 0.0],
    [0.0, 3.0, 0.0, 0.0, 4.0, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [5.0, 0.0, 0.0, 6.0, 0.0, 7.0],
    [0.0, 0.0, 8.0, 0.0, 9.0, 0.0],
]
DENSE_3D = [
    [[1.0, 0.0, 0.0, 2.0], [0.0, 0.0, 3.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
    [[0.0, 4.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [5.0, 0.0, 0.0, 6.0]],
    [[0.0, 0.0, 0.0, 0.0], [7.0, 0.0, 0.0, 0.0], [0.0, 0.0, 8.0, 0.0]],
]
PARAMS = ["row1", "col1", "NNZ", "NR"]
SYMTAB = SymbolTable(arrays={"row1", "col1", "rowptr", "col2"})


def _program() -> Program:
    n, nnz = Var("n"), Sym("NNZ")
    return Program([
        st.Alloc("rowptr", Sym("NR") + 1),
        st.Alloc("col2", nnz),
        ForLoop("n", [0], [nnz - 1], [
            st.Histogram("rowptr", UFCall("row1", [n])),
            st.Scatter("col2", (n,), UFCall("col1", [n])),
        ]),
    ])


def run_timed(conversion, inputs) -> tuple[dict, list]:
    """Run ``conversion``'s timed variant; return outputs and reports."""
    reports = []
    clock = itertools.count()
    timed = compile_inspector(
        conversion.name,
        get_backend(conversion.backend).timed_source(conversion),
        extra_env={
            "__OBS_STMT": lambda *report: reports.append(report),
            "__OBS_CLOCK": lambda: next(clock),
        },
        backend=conversion.backend,
    )
    result = timed(*conversion._arguments(inputs))
    return get_backend(conversion.backend).materialize(result), reports


class TestLabels:
    def test_statement_reads_kind_and_target(self):
        assert span_label(st.Alloc("rowptr", 4)) == "Alloc rowptr"

    def test_nest_lists_kinds_in_first_use_order(self):
        nest = _program().body[2]
        assert span_label(nest) == "for n: Histogram rowptr; Scatter col2"

    def test_binary_search_names_what_it_guards(self):
        inner = st.Scatter("Adst", (Var("d"),), 1)
        node = st.BinarySearch("d", "off", Var("k"), inner)
        assert span_label(node) == "BinarySearch Adst"


class TestTimedPrinters:
    def test_hooks_bracket_each_top_level_node(self):
        program = _program()
        args = ("f", PARAMS, program, ["rowptr", "col2"], SYMTAB)
        plain = emit_python_function(*args)
        timed = emit_python_function(*args, timing=True)
        hooks = [l.strip() for l in timed.splitlines() if "__OBS" in l]
        assert hooks == [
            line
            for index, node in enumerate(program.body)
            for line in (
                "__obs_t = __OBS_CLOCK()",
                f"__OBS_STMT({index}, {span_label(node)!r}, __obs_t, "
                "__OBS_CLOCK())",
            )
        ]
        # Everything else is the untimed function, line for line.
        assert [l for l in timed.splitlines() if "__OBS" not in l] == (
            plain.splitlines()
        )

    def test_numpy_hooks_leave_the_untimed_function(self):
        program = _program()
        args = ("f", PARAMS, program, ["rowptr", "col2"], SYMTAB)
        plain = emit_numpy_function(*args)
        timed = emit_numpy_function(*args, timing=True)
        assert timed.source.count("__OBS_STMT(") == len(program.body)
        assert [
            l for l in timed.source.splitlines() if "__OBS" not in l
        ] == plain.source.splitlines()
        assert timed.vector_stats == plain.vector_stats

    def test_empty_program_prints_a_callable(self):
        source = emit_python_function(
            "f", [], Program([]), [], SymbolTable(), timing=True
        )
        namespace = {}
        exec(source, namespace)
        assert namespace["f"]() == {}


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_sweep_timed_sources_return_untimed_outputs(backend):
    """Over the whole sweep: same outputs, one report per top-level node,
    carrying that node's label, in program order."""
    checked = 0
    for label, src, dst, optimize, bsearch in sweep():
        conversion = synthesize(
            src, dst, optimize=optimize, binary_search=bsearch,
            backend=backend,
        )
        dense = DENSE_2D if src.levels.rank == 2 else DENSE_3D
        env = src.levels.assemble(dense)
        inputs = {p: env[p] for p in conversion.params}
        outputs, reports = run_timed(conversion, inputs)
        assert outputs == conversion(**inputs), label
        body = conversion.program.body
        assert [(r[0], r[1]) for r in reports] == [
            (index, span_label(node)) for index, node in enumerate(body)
        ], label
        assert all(start < end for _, _, start, end in reports), label
        checked += 1
    assert checked == len(sweep())
