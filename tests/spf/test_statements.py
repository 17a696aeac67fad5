"""The typed statement vocabulary and its three printers.

One hand-built computation per statement kind runs through the python,
numpy and C lowerings, which must agree output for output; the whole
conversion sweep (tests/sweep.py) must lower to typed statements only,
and the numpy printer must vectorize every nest of it.
"""

import ast
from pathlib import Path

import pytest

from repro.backends import BackendUnavailableError, get_backend
from repro.ir import IntSet, Mod, Sym, UFCall, Var
from repro.spf import Computation, Raw, SymbolTable, walk
from repro.spf import statements as st
from repro.spf.codegen.c_emit import emit_c
from repro.spf.transforms import apply_all_fusion

from tests.sweep import synthesized

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
)


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


def _lower_and_run(comp, returns, backend):
    params = sorted(INPUTS)
    if backend == "python":
        source = comp.codegen_function(params, returns, SYMTAB)
    elif backend == "numpy":
        source = comp.codegen_function_numpy(params, returns, SYMTAB).source
    else:
        source = get_backend("c").lower(comp, params, returns, SYMTAB).source
        assert "__C_RUN(" in source
    namespace = get_backend(backend).namespace()
    exec(source, namespace)
    outputs = namespace[comp.name](*[INPUTS[p] for p in params])
    return {
        name: int(value) if np.ndim(value) == 0 else [float(v) for v in value]
        for name, value in outputs.items()
    }


def test_every_kind_has_a_case():
    assert set(CASES) == set(st.KINDS)


@pytest.mark.parametrize("kind", st.KINDS, ids=lambda k: k.__name__)
def test_kind_prints_the_same_on_every_tier(kind):
    backends = ["python", "numpy", "c"]
    try:
        get_backend("c").require()
    except BackendUnavailableError:
        backends.remove("c")
    results = {}
    for backend in backends:
        comp = Computation(f"kind_{kind.__name__.lower()}")
        returns = CASES[kind](comp)
        assert any(isinstance(s.body, kind) for s in comp.stmts)
        results[backend] = _lower_and_run(comp, returns, backend)
    reference = results.pop("python")
    for backend, got in results.items():
        assert got == reference, backend


def test_numpy_and_c_reject_raw_statements_by_name():
    comp = Computation("opaque")
    comp.new_stmt("out[i] = i", OVER_N)
    symtab = SymbolTable(arrays={"out"})
    with pytest.raises(st.UnsupportedStatement, match=r"out\[i\] = i"):
        comp.codegen_function_numpy(["N"], [], symtab)
    with pytest.raises(st.UnsupportedStatement, match=r"out\[i\] = i"):
        emit_c(comp, ["N"], [], symtab)


def test_rename_is_simultaneous():
    body = st.Scatter("out", (x, i), 10 * x + i)
    swapped = body.rename_vars({"x": "i", "i": "x"})
    assert swapped == st.Scatter("out", (i, x), 10 * i + x)


def test_codegen_parses_no_statement_text():
    codegen = Path(st.__file__).parent / "codegen"
    for path in sorted(codegen.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[0])
        assert not imported & {"ast", "re"}, path.name


def test_sweep_lowers_to_typed_statements_only():
    count = 0
    for label, conversion in synthesized("python"):
        nodes = list(walk(conversion.computation.lower()))
        inner = [n.stmt for n in nodes if isinstance(n, st.BinarySearch)]
        assert not any(isinstance(n, Raw) for n in nodes + inner), label
        count += 1
    assert count == 162 + 18 + 192


def test_sweep_vectorizes_every_nest():
    for label, conversion in synthesized("numpy"):
        assert conversion.vector_stats["scalar_nests"] == 0, label
