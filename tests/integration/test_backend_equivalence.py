"""The numpy lowering backend must be bit-identical to the scalar backend.

These tests are the acceptance gate for the vectorized lowering: for every
synthesizable conversion pair, both backends run on the same inputs —
randomized matrices, an empty matrix, and duplicate coordinates — and the
raw inspector outputs (pointer arrays, permutations, padding and all) must
compare equal element for element.
"""

from array import array

import pytest

from repro import (
    COOMatrix,
    COOTensor3D,
    DIAMatrix,
    ELLMatrix,
    container_to_env,
    convert,
    dense_equal,
)
from repro.backends import get_backend
from repro.formats import get_format
from repro.ir import IntSet, Sym, UFCall, Var
from repro.planner import PLANNABLE_2D, PLANNABLE_3D
from repro.runtime.executor import base_namespace
from repro.spf import Computation, SymbolTable
from repro.spf import statements as st
from repro.synthesis import SynthesisError, synthesize
from repro.validation import backend_equivalence_test

np = pytest.importorskip("numpy")


def _synthesizable_pairs(names):
    pairs = []
    for src in names:
        for dst in names:
            if src == dst:
                continue
            try:
                synthesize(get_format(src), get_format(dst))
            except SynthesisError:
                continue
            pairs.append((src, dst))
    return pairs


PAIRS_2D = _synthesizable_pairs(PLANNABLE_2D)
PAIRS_3D = _synthesizable_pairs(PLANNABLE_3D)


@pytest.mark.parametrize("src,dst", PAIRS_2D,
                         ids=[f"{s}-{d}" for s, d in PAIRS_2D])
def test_pair_equivalent_2d(src, dst):
    report = backend_equivalence_test(trials=3, seed=11, pairs=[(src, dst)])
    assert report.ok, report.failures
    assert report.conversions_checked > 0


@pytest.mark.parametrize("src,dst", PAIRS_3D,
                         ids=[f"{s}-{d}" for s, d in PAIRS_3D])
def test_pair_equivalent_3d(src, dst):
    report = backend_equivalence_test(trials=3, seed=11, pairs=[(src, dst)])
    assert report.ok, report.failures
    assert report.conversions_checked > 0


def test_empty_matrix_all_targets():
    empty = COOMatrix(4, 5, [], [], [])
    for dst in ("CSR", "CSC", "DIA", "MCOO"):
        a = convert(empty, dst, backend="python")
        b = convert(empty, dst, backend="numpy")
        assert dense_equal(a.to_dense(), b.to_dense())


#: Sources holding repeated coordinate tuples, which only reach an
#: inspector when validation is off, one per ``OrderedList`` shape the
#: destination asks for: lexicographic 2-D and 3-D keys, Morton keys,
#: blocked ``unique=True`` keys and insertion order (no key).
_DUP_2D = COOMatrix(5, 5, [3, 0, 2, 0, 3, 2, 4], [1, 1, 0, 1, 1, 4, 4],
                    [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
_DUP_3D = COOTensor3D((3, 3, 2), [1, 0, 1, 2, 1], [0, 1, 0, 2, 0],
                      [1, 1, 1, 0, 1], [1.0, 2.0, 3.0, 4.0, 5.0])
DUPLICATE_CASES = [
    (_DUP_2D, "CSR"),
    (_DUP_2D, "CSC"),
    (_DUP_2D, "SCOO"),
    (_DUP_3D, "SCOO3D"),
    (_DUP_2D, "MCOO"),
    (_DUP_3D, "MCOO3"),
    (_DUP_2D, "BCSR"),
    # Insertion order: the copies of a tuple are not adjacent.
    (DIAMatrix(3, 3, [0, 1, 0], [float(v) for v in range(1, 10)]), "COO"),
    (ELLMatrix(2, 3, 3, [1, 0, 1, 2, -1, -1],
               [1.0, 2.0, 3.0, 4.0, 0.0, 0.0]), "COO"),
]


def _raw_outputs(container, dst, backend):
    conversion = synthesize(
        get_format(container.format_name), get_format(dst), backend=backend
    )
    env = container_to_env(container)
    return conversion(**{p: env[p] for p in conversion.params})


def _duplicates_agree(backend):
    for container, dst in DUPLICATE_CASES:
        label = f"{container.format_name}->{dst}"
        assert "OrderedList(" in synthesize(
            get_format(container.format_name), get_format(dst)
        ).source, label
        reference = _raw_outputs(container, dst, "python")
        assert _raw_outputs(container, dst, backend) == reference, label


def test_duplicate_coordinates_match():
    # Repeated coordinate tuples take the rank of their last occurrence
    # in sorted order (blocked keys: one rank per block); the numpy
    # positional ranks must agree exactly with the scalar OrderedList.
    _duplicates_agree("numpy")


def test_fallback_path_is_exercised():
    # No synthesized conversion has a hazard nest, so a hand-built one
    # keeps the mixed vectorized/scalar emission covered: the second nest
    # reads `a` at a neighbouring slot while writing it.
    comp = Computation("hazard")
    comp.new_stmt(st.Alloc("a", Sym("N") + 1), IntSet(()), writes=["a"])
    comp.new_stmt(st.Scatter("a", (Var("i"),), 2 * Var("i")),
                  "{[i] : 0 <= i < N}", writes=["a"])
    comp.new_stmt(
        st.Scatter("a", (Var("i") + 1,), UFCall("a", [Var("i")]) + 1),
        "{[i] : 0 <= i < N}", reads=["a"], writes=["a"],
    )
    symtab = SymbolTable(arrays={"a"})
    lowering = get_backend("numpy").lower(
        comp.lower(), comp.name, ["N"], ["a"], symtab
    )
    assert lowering.vector_stats == {"vectorized_nests": 1, "scalar_nests": 1}
    assert "a both read and written in one nest" in lowering.source
    scalar = comp.codegen_function(["N"], ["a"], symtab)
    results = []
    for backend, source in (("python", scalar), ("numpy", lowering.source)):
        namespace = base_namespace(backend)
        exec(source, namespace)
        results.append(list(namespace["hazard"](5)["a"]))
    assert results[0] == results[1] == [0, 1, 2, 3, 4, 5]


def _typed_fields(csr):
    return [(type(v), getattr(v, "typecode", None))
            for v in (csr.rowptr, csr.col, csr.val)]


def test_numpy_outputs_are_plain_python():
    # Materialize hands back the scalar backend's container types: stdlib
    # typed arrays, never numpy.
    coo = COOMatrix(2, 2, [0, 1], [1, 0], [1.0, 2.0])
    csr = convert(coo, "CSR", backend="numpy")
    assert _typed_fields(csr) == [(array, "q"), (array, "q"), (array, "d")]
    assert _typed_fields(csr) == _typed_fields(convert(coo, "CSR"))


# ----------------------------------------------------------------------
# Compiled tier
# ----------------------------------------------------------------------
def _c_available() -> bool:
    from repro.backends import get_backend

    try:
        get_backend("c").require()
    except ValueError:
        return False
    return True


needs_c = pytest.mark.skipif(
    not _c_available(), reason="C toolchain (cffi + compiler) unavailable"
)

#: A representative slice of the pair matrix for the per-test C gate —
#: sort, histogram, binary-search, Morton, block and key-less permutation
#: shapes.  CI's native job runs the full matrix via
#: ``backend_equivalence_test(backends=("numpy", "c"))``.
C_SMOKE_PAIRS = [
    ("COO", "CSR"),
    ("CSR", "CSC"),
    ("COO", "DIA"),
    ("COO", "MCOO"),
    ("SCOO", "BCSR"),
    ("CSF", "MCOO3"),
    ("DIA", "COO"),
]


@needs_c
@pytest.mark.parametrize("src,dst", C_SMOKE_PAIRS,
                         ids=[f"{s}-{d}" for s, d in C_SMOKE_PAIRS])
def test_pair_equivalent_c(src, dst):
    report = backend_equivalence_test(
        trials=3, seed=11, pairs=[(src, dst)], backends=("numpy", "c")
    )
    assert report.ok, report.failures
    assert report.conversions_checked > 0


@needs_c
def test_duplicate_coordinates_match_c():
    _duplicates_agree("c")


@needs_c
def test_c_outputs_are_plain_python():
    coo = COOMatrix(2, 2, [0, 1], [1, 0], [1.0, 2.0])
    csr = convert(coo, "CSR", backend="c")
    assert _typed_fields(csr) == [(array, "q"), (array, "q"), (array, "d")]
