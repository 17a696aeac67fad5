"""The typed statement vocabulary and its three printers.

One hand-built computation per statement kind runs through the python,
numpy and C lowerings, which must agree output for output; the whole
conversion sweep (tests/sweep.py) must lower to typed statements only,
and the numpy printer must vectorize every nest of it.  No module that
builds or prints statements reads statement text.
"""

import ast
from pathlib import Path

import pytest

from repro.backends import get_backend
from repro.ir import IntSet, Mod, Sym, UFCall, Var
from repro.spf import (
    Comment,
    Computation,
    ForLoop,
    Guard,
    LetEq,
    Program,
    SymbolTable,
    walk,
)
from repro.spf import statements as st
from repro.spf.codegen.c_emit import emit_c
from repro.spf.transforms import apply_all_fusion, dead_code_elimination

from tests.sweep import synthesized
from tests.tiers import needs_c

np = pytest.importorskip("numpy")

SCALAR = IntSet(())
N, M, NNZ = Sym("N"), Sym("M"), Sym("NNZ")
n, i, x = Var("n"), Var("i"), Var("x")
OVER_N = "{[i] : 0 <= i < N}"
OVER_NNZ = "{[n] : 0 <= n < NNZ}"
INPUTS = {
    "N": 5, "M": 4, "NNZ": 6, "NQ": 4,
    "r": [2, 0, 1, 2, 0, 1],
    "c": [1, 3, 0, 1, 2, 2],
    "q": [-1, 0, 5, 1],
    "Asrc": [1.5, 2.5, 3.5, 4.5, 5.5, 6.5],
}
SYMTAB = SymbolTable(
    arrays={"r", "c", "q", "Asrc"},
    functions={"MORTON"},
    objects={"P", "Q", "U", "B"},
    floats={"Asrc"},
)
#: Each kind on each compiled tier: ``[Kind]`` runs numpy, ``[Kind-c]``
#: the C tier, a visible skip where its toolchain is missing.
KIND_TIERS = [
    pytest.param(kind, backend, id=kind.__name__ + suffix, marks=marks)
    for kind in st.KINDS
    for backend, suffix, marks in (("numpy", "", ()), ("c", "-c", needs_c))
]


def at(array, index) -> object:
    return UFCall(array, [index])


def _alloc(comp):
    comp.new_stmt(st.Alloc("a", N + 1), SCALAR)
    comp.new_stmt(st.Alloc("b", N, fill=M), SCALAR)
    comp.new_stmt(st.Alloc("Adst", 2 * N, floating=True), SCALAR)
    return ["a", "b", "Adst"]


def _array_copy(comp):
    comp.new_stmt(st.Alloc("a", N), SCALAR)
    comp.new_stmt(st.Scatter("a", (i,), 3 * i + 1), OVER_N)
    comp.new_stmt(st.ArrayCopy("b", "a"), SCALAR)
    comp.new_stmt(st.Scatter("a", (i,), i), OVER_N)
    return ["a", "b"]


def _histogram(comp):
    comp.new_stmt(st.Alloc("cnt", M + 1), SCALAR)
    comp.new_stmt(st.Histogram("cnt", at("c", n)), OVER_NNZ)
    return ["cnt"]


def _scatter(comp):
    comp.new_stmt(st.Alloc("Adst", NNZ, floating=True), SCALAR)
    comp.new_stmt(
        st.Scatter("Adst", (NNZ - 1 - n,), at("Asrc", n)), OVER_NNZ
    )
    comp.new_stmt(st.Alloc("last", M), SCALAR)
    comp.new_stmt(st.Scatter("last", (at("r", n),), n + 1), OVER_NNZ)
    return ["Adst", "last"]


def _reduce(comp):
    comp.new_stmt(st.Alloc("hi", M), SCALAR)
    comp.new_stmt(st.Alloc("lo", M, fill=NNZ), SCALAR)
    comp.new_stmt(
        st.Reduce("hi", (at("r", n),), n + 1, "max"), OVER_NNZ
    )
    comp.new_stmt(
        st.Reduce("lo", (at("c", n),), n, "min"), OVER_NNZ
    )
    return ["hi", "lo"]


def _accumulate(comp):
    comp.new_stmt(st.Alloc("acc", M, floating=True), SCALAR)
    comp.new_stmt(st.Alloc("sums", M, floating=True), SCALAR)
    comp.new_stmt(
        st.Accumulate("acc", (at("r", n),),
                      (at("Asrc", n), at("c", n) + 1, at("Asrc", NNZ - 1 - n))),
        OVER_NNZ,
    )
    comp.new_stmt(st.Accumulate("sums", (at("c", n),), (at("Asrc", n),)),
                  OVER_NNZ)
    return ["acc", "sums"]


def _prefix_fix(comp):
    comp.new_stmt(st.Alloc("p", NNZ + 1), SCALAR)
    comp.new_stmt(st.Alloc("m", M + 1), SCALAR)
    comp.new_stmt(st.Scatter("p", (n + 1,), at("c", n)), OVER_NNZ)
    comp.new_stmt(st.Scatter("m", (at("r", n) + 1,), n + 1), OVER_NNZ)
    comp.new_stmt(st.PrefixFix("p", x, "+"),
                  "{[x] : 1 <= x <= NNZ}")
    comp.new_stmt(st.PrefixFix("m", x, "max"),
                  "{[x] : 1 <= x <= M}")
    return ["p", "m"]


def _bucket_fill(comp):
    comp.new_stmt(st.Alloc("cnt", M + 1), SCALAR)
    comp.new_stmt(st.Alloc("pos", NNZ), SCALAR)
    comp.new_stmt(st.Histogram("cnt", at("c", n)), OVER_NNZ)
    comp.new_stmt(st.PrefixFix("cnt", x, "+"),
                  "{[x] : 1 <= x <= M}")
    comp.new_stmt(st.ArrayCopy("fill", "cnt"), SCALAR)
    comp.new_stmt(st.BucketFill("k", "fill", at("c", n)), OVER_NNZ,
                  phase=1)
    comp.new_stmt(st.Scatter("pos", (Var("k"),), n),
                  OVER_NNZ, phase=1)
    apply_all_fusion(comp)
    return ["pos", "fill"]


def _permutation(comp, decl):
    """Build, size and rank one permutation object over (r, c)."""
    name = decl.name
    comp.new_stmt(decl, SCALAR)
    comp.new_stmt(st.Insert(name, (at("r", n), at("c", n))),
                  OVER_NNZ)
    comp.new_stmt(st.Length(f"len_{name}", name), SCALAR)
    comp.new_stmt(st.Alloc(f"rank_{name}", NNZ), SCALAR)
    comp.new_stmt(
        st.Scatter(f"rank_{name}", (n,), Var("k")),
        f"{{[n, k] : 0 <= n < NNZ && k = {name}(r(n), c(n))}}",
    )
    return [f"rank_{name}", f"len_{name}"]


def _ordered_list(comp):
    ri, ci = Var("ri"), Var("ci")
    lists = [
        st.NewOrderedList("P", ("ri", "ci"), (ci, ri)),
        st.NewOrderedList(
            "Q", ("ri", "ci"), (UFCall("MORTON", [ri, ci]),)
        ),
        st.NewOrderedList("B", ("ri", "ci")),  # key=None: insertion order
        st.NewOrderedList(
            "U", ("ri", "ci"),
            (ri - Mod(ri, 2), ci - Mod(ci, 2)),
            unique=True,
        ),
    ]
    return [out for decl in lists for out in _permutation(comp, decl)]


def _bucket_permutation(comp):
    return _permutation(comp, st.NewBucketPermutation("P", M, 1, 2))


def _ordered_set(comp):
    comp.new_stmt(st.NewOrderedSet("off"), SCALAR)
    comp.new_stmt(st.Insert("off", (at("c", n) - at("r", n),)), OVER_NNZ)
    comp.new_stmt(st.Length("ND", "off"), SCALAR)
    comp.new_stmt(st.Length("NQ2", "q"), SCALAR)
    comp.new_stmt(st.Materialize("off"), SCALAR)
    return ["off", "ND", "NQ2"]


def _binary_search(comp):
    outs = _ordered_set(comp)
    comp.new_stmt(st.Alloc("hits", Sym("NQ")), SCALAR)
    comp.new_stmt(
        st.BinarySearch("d", "off", at("q", i),
                        st.Scatter("hits", (i,), Var("d") + 1)),
        "{[i] : 0 <= i < NQ}",
    )
    comp.new_stmt(st.Alloc("Adst", Sym("ND"), floating=True), SCALAR)
    comp.new_stmt(
        st.BinarySearch("d", "off", at("c", n) - at("r", n),
                        st.Scatter("Adst", (Var("d"),),
                                   at("Asrc", n))),
        OVER_NNZ,
    )
    return outs + ["hits", "Adst"]


CASES = {
    st.Alloc: _alloc,
    st.ArrayCopy: _array_copy,
    st.Histogram: _histogram,
    st.Scatter: _scatter,
    st.Reduce: _reduce,
    st.Accumulate: _accumulate,
    st.PrefixFix: _prefix_fix,
    st.BucketFill: _bucket_fill,
    st.NewOrderedList: _ordered_list,
    st.NewBucketPermutation: _bucket_permutation,
    st.NewOrderedSet: _ordered_set,
    st.Insert: _ordered_set,
    st.Length: _ordered_set,
    st.Materialize: _ordered_set,
    st.BinarySearch: _binary_search,
}


def _lower_and_run(comp, returns, backend, inputs=INPUTS):
    params = sorted(inputs)
    source = get_backend(backend).lower(
        comp.lower(), comp.name, params, returns, SYMTAB
    ).source
    if backend == "c":
        assert "__C_RUN(" in source
    namespace = get_backend(backend).namespace()
    exec(source, namespace)
    outputs = namespace[comp.name](*[inputs[p] for p in params])
    return {
        name: value if np.ndim(value) == 0 else [float(v) for v in value]
        for name, value in outputs.items()
    }


def test_every_kind_has_a_case():
    assert set(CASES) == set(st.KINDS)


@pytest.mark.parametrize("kind,backend", KIND_TIERS)
def test_kind_prints_the_same_on_every_tier(kind, backend):
    results = {}
    for tier in ("python", backend):
        comp = Computation(f"kind_{kind.__name__.lower()}")
        returns = CASES[kind](comp)
        assert any(isinstance(s.body, kind) for s in comp.stmts)
        results[tier] = _lower_and_run(comp, returns, tier)
    assert results[backend] == results["python"]


@pytest.mark.parametrize("kind", st.KINDS, ids=lambda k: k.__name__)
def test_kind_keeps_every_statement_its_returns_need(kind):
    # Every statement of a case feeds a return, so dead code elimination
    # over the dataflow derived from the bodies removes none of them.
    comp = Computation(f"kind_{kind.__name__.lower()}")
    returns = CASES[kind](comp)
    assert dead_code_elimination(comp, returns) == []


def test_bound_variables_are_dataflow():
    comp = Computation("bound")
    _bucket_fill(comp)
    fill = next(s for s in comp.stmts if isinstance(s.body, st.BucketFill))
    use = next(s for s in comp.stmts if s.body == st.Scatter(
        "pos", (Var("k"),), n))
    assert fill.writes == ("fill", "k")
    assert "k" in use.reads and "k" not in fill.reads

    comp = Computation("search")
    _binary_search(comp)
    search = [s for s in comp.stmts if isinstance(s.body, st.BinarySearch)]
    for stmt in search:
        assert "off" in stmt.reads and "d" not in stmt.reads
    assert [s.writes for s in search] == [("d", "hits"), ("Adst", "d")]


def test_operators_parameters_and_helpers_are_not_read():
    comp = Computation("not_read")
    _reduce(comp)
    _prefix_fix(comp)
    _ordered_list(comp)
    reads = {type(s.body).__name__ + ":" + s.body.target: s.reads
             for s in comp.stmts}
    assert reads["Reduce:hi"] == ("NNZ", "hi", "r")
    assert reads["PrefixFix:p"] == ("NNZ", "p")
    assert reads["NewOrderedList:Q"] == ("Q",)
    assert reads["NewOrderedList:U"] == ("U",)


def _sum_in_loop_order() -> Computation:
    """``total`` = the float sum of ``Asrc``, in index order."""
    comp = Computation("total")
    comp.new_stmt(st.Alloc("total", None, floating=True), SCALAR)
    comp.new_stmt(st.Accumulate("total", (), (at("Asrc", n),)), OVER_NNZ)
    return comp


#: 1e16 + 1.0 rounds back to 1e16, so a sum of these depends on the
#: order of the additions: the loop's order reads 4.25 (the exact sum is
#: 5.25, the reversed order 4.0).
ORDERED = {**INPUTS, "r": [1] * 6,
           "Asrc": [1e16, 1.0, -1e16, 1.0, 0.25, 3.0]}


def _ordered_acc(backend) -> dict:
    comp = Computation("ordered")
    comp.new_stmt(st.Alloc("acc", M, floating=True), SCALAR)
    comp.new_stmt(st.Accumulate("acc", (at("r", n),), (at("Asrc", n),)),
                  OVER_NNZ)
    return _lower_and_run(comp, ["acc"], backend, ORDERED)


def _ordered_total(backend) -> float:
    return _lower_and_run(
        _sum_in_loop_order(), ["total"], backend, ORDERED
    )["total"]


def test_accumulate_adds_in_loop_order():
    for backend in ("python", "numpy"):
        assert _ordered_acc(backend) == {"acc": [0.0, 4.25, 0.0, 0.0]}
    assert _ordered_total("python") == 4.25


@needs_c
def test_c_accumulates_in_loop_order():
    assert _ordered_acc("c") == {"acc": [0.0, 4.25, 0.0, 0.0]}
    total = _ordered_total("c")
    assert total == 4.25 and isinstance(total, float)


def test_numpy_and_c_reject_unsupported_statements_by_name():
    # numpy has no whole-array form of a float accumulation into a scalar
    # that keeps its order; C stores through one index per array.
    comp = _sum_in_loop_order()
    params = sorted(INPUTS)
    with pytest.raises(st.UnsupportedStatement,
                       match=r"scalar total in loop order: Accumulate\("):
        get_backend("numpy").lower(
            comp.lower(), comp.name, params, ["total"], SYMTAB
        )
    grid = Computation("grid")
    grid.new_stmt(st.Scatter("out", (n, n), 1), OVER_NNZ)
    with pytest.raises(st.UnsupportedStatement,
                       match=r"store into 'out' with 2 indices"):
        emit_c(grid.lower(), grid.name, params, [], SYMTAB)


def test_rename_is_simultaneous():
    body = st.Scatter("out", (x, i), 10 * x + i)
    swapped = body.rename_vars({"x": "i", "i": "x"})
    assert swapped == st.Scatter("out", (i, x), 10 * i + x)


def test_codegen_parses_no_statement_text():
    # Every module that builds, rewrites or prints statements: the IR and
    # its printers, the kernel generator, synthesis and tandem.
    src = Path(st.__file__).parents[1]
    modules = [
        path
        for package in ("spf", "kernels", "synthesis")
        for path in sorted((src / package).rglob("*.py"))
    ]
    assert len(modules) > 20
    for path in modules:
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[0])
        assert not imported & {"ast", "re"}, path.relative_to(src)


def test_sweep_lowers_to_typed_statements_only():
    count = 0
    for label, conversion in synthesized("python"):
        nodes = list(walk(conversion.computation.lower()))
        inner = [n.stmt for n in nodes if isinstance(n, st.BinarySearch)]
        structure = (Program, ForLoop, Guard, LetEq, Comment)
        assert all(isinstance(n, st.Statement) for n in nodes + inner
                   if not isinstance(n, structure)), label
        count += 1
    assert count == 162 + 18 + 192


def _nests(nodes):
    """Top-level loop nests, including those under a symbol-only guard."""
    for node in nodes:
        if isinstance(node, ForLoop):
            yield node
        elif isinstance(node, Guard):
            yield from _nests(node.body)


def test_sweep_vectorizes_every_nest():
    # numpy prints every nest whole-array or refuses the program, so each
    # sweep conversion lowering at all means every nest vectorized.
    count = 0
    for label, conversion in synthesized("numpy"):
        nests = len(list(_nests(conversion.program.body)))
        assert nests, label
        assert conversion.vector_stats == {"vectorized_nests": nests}, label
        count += 1
    assert count == 162 + 18 + 192
