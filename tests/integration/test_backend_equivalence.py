"""Every lowering tier must agree with the scalar one on every planner pair.

The per-pair tests run each synthesizable pair over the planner's formats
through the differential fuzzer's case runner, on every available tier
(python, numpy, and C where a toolchain is present).  Each case gets the
fuzzer's full checks: the input gate, the output's invariants, shape and
stored entries against the generator's cells, the hand-written baselines
where one exists, and each tier's container against those of
its ``differential_references``, field for field and typecode for
typecode.  The inputs are fixed: an empty 4x5 matrix, a 1x1 matrix (an
empty 2x3x4 tensor for 3-D pairs) and seeded draws from the fuzzer's
uniform generators, so every pair sees the degenerate shapes a seeded
fuzz run reaches only for some combos.  Inputs with repeated coordinates
reach an inspector only with validation off; the duplicate cases compare
those raw inspector outputs with the scalar tier's.
"""

import random
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
from repro.formats.levels import Cells
from repro.ir import IntSet, Sym, UFCall, Var
from repro.planner import PLANNABLE_2D, PLANNABLE_3D
from repro.runtime.executor import base_namespace
from repro.spf import Computation, SymbolTable
from repro.spf import statements as st
from repro.synthesis import synthesize
from repro.verify.fuzz import (
    CASE_KINDS_2D,
    CASE_KINDS_3D,
    _differing,
    _gen_uniform,
    _gen_uniform3,
    _run_case,
    _synthesizable_pairs,
)

from tests.tiers import c_available, needs_c

np = pytest.importorskip("numpy")

TIERS = ("python", "numpy") + (("c",) if c_available() else ())


def _planner_pairs(names):
    combos = _synthesizable_pairs(names, names, ("python",), (True,), [])
    return [(src, dst) for src, dst, *_ in combos]


PAIRS_2D = _planner_pairs(PLANNABLE_2D)
PAIRS_3D = _planner_pairs(PLANNABLE_3D)

INPUTS_2D = [
    ("empty", Cells.from_dense([[0.0] * 5 for _ in range(4)], 2)),
    ("1x1", Cells.from_dense([[7.0]], 2)),
] + [(f"uniform{seed}", _gen_uniform(random.Random(seed)))
     for seed in range(3)]
INPUTS_3D = [("empty", Cells.from_dense(np.zeros((2, 3, 4)), 3))] + [
    (f"uniform{seed}", _gen_uniform3(random.Random(seed)))
    for seed in range(3)
]


def _pair_agrees(inputs, src, dst):
    for backend in TIERS:
        for tag, cells in inputs:
            outcome = _run_case(cells, src, dst, backend, True,
                                random.Random(0))
            assert outcome is None, (
                f"{src}->{dst} on {tag} ({backend}): {outcome}"
            )


@pytest.mark.parametrize("src,dst", PAIRS_2D,
                         ids=[f"{s}-{d}" for s, d in PAIRS_2D])
def test_pair_equivalent_2d(src, dst):
    _pair_agrees(INPUTS_2D, src, dst)


@pytest.mark.parametrize("src,dst", PAIRS_3D,
                         ids=[f"{s}-{d}" for s, d in PAIRS_3D])
def test_pair_equivalent_3d(src, dst):
    _pair_agrees(INPUTS_3D, src, dst)


def test_empty_matrix_all_targets():
    empty = COOMatrix(4, 5, [], [], [])
    for dst in ("CSR", "CSC", "DIA", "MCOO"):
        a = convert(empty, dst, backend="python")
        b = convert(empty, dst, backend="numpy")
        assert dense_equal(a.to_dense(), b.to_dense())


#: ``(source format, container, destination)`` cases whose sources hold
#: repeated coordinate tuples.  The first nine cover each ``OrderedList``
#: shape a destination asks for: lexicographic 2-D and 3-D keys, Morton
#: keys, blocked ``unique=True`` keys and insertion order (no key).  The
#: rest run every planner pair out of COO and SCOO on one sorted input.
_DUP_2D = COOMatrix(5, 5, [3, 0, 2, 0, 3, 2, 4], [1, 1, 0, 1, 1, 4, 4],
                    [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
_DUP_3D = COOTensor3D((3, 3, 2), [1, 0, 1, 2, 1], [0, 1, 0, 2, 0],
                      [1, 1, 1, 0, 1], [1.0, 2.0, 3.0, 4.0, 5.0])
_DUP_SORTED = COOMatrix(3, 3, [0, 0, 2, 2], [1, 1, 0, 0],
                        [1.0, 2.0, 3.0, 4.0])
DUPLICATE_CASES = [
    ("COO", _DUP_2D, "CSR"),
    ("COO", _DUP_2D, "CSC"),
    ("COO", _DUP_2D, "SCOO"),
    ("COO3D", _DUP_3D, "SCOO3D"),
    ("COO", _DUP_2D, "MCOO"),
    ("COO3D", _DUP_3D, "MCOO3"),
    ("COO", _DUP_2D, "BCSR"),
    # Insertion order: the copies of a tuple are not adjacent.
    ("DIA", DIAMatrix(3, 3, [0, 1, 0], [float(v) for v in range(1, 10)]),
     "COO"),
    ("ELL", ELLMatrix(2, 3, 3, [1, 0, 1, 2, -1, -1],
                      [1.0, 2.0, 3.0, 4.0, 0.0, 0.0]), "COO"),
] + [
    (src, _DUP_SORTED, dst)
    for src in ("COO", "SCOO")
    for dst in ("COO", "SCOO", "MCOO", "CSR", "CSC", "DIA", "BCSR")
    if dst != src
]
#: The duplicate cases whose inspectors build no ``OrderedList``.
NO_ORDERED_LIST = {
    ("COO", "DIA"), ("SCOO", "COO"), ("SCOO", "CSR"), ("SCOO", "CSC"),
    ("SCOO", "DIA"),
}


def _raw_outputs(src, container, dst, backend):
    conversion = synthesize(get_format(src), get_format(dst),
                            backend=backend)
    env = container_to_env(container)
    return conversion(**{p: env[p] for p in conversion.params})


def _duplicates_agree(backend):
    for src, container, dst in DUPLICATE_CASES:
        label = f"{src}->{dst}"
        source = synthesize(get_format(src), get_format(dst)).source
        assert ("OrderedList(" in source) == (
            (src, dst) not in NO_ORDERED_LIST
        ), label
        reference = _raw_outputs(src, container, dst, "python")
        differing = _differing(
            _raw_outputs(src, container, dst, backend), reference
        )
        assert not differing, f"{label}: {differing}"


def test_duplicate_coordinates_match():
    # Repeated coordinate tuples take the rank of their last occurrence
    # in sorted order (blocked keys: one rank per block); the numpy
    # positional ranks must agree exactly with the scalar OrderedList.
    _duplicates_agree("numpy")


def test_numpy_refuses_hazard_nest():
    # No synthesized conversion has a hazard nest, so a hand-built one
    # pins the refusal: the second nest reads `a` at a neighbouring slot
    # while writing it, which no whole-array form can order.  The
    # scalar tier still runs it.
    comp = Computation("hazard")
    comp.new_stmt(st.Alloc("a", Sym("N") + 1), IntSet(()), writes=["a"])
    comp.new_stmt(st.Scatter("a", (Var("i"),), 2 * Var("i")),
                  "{[i] : 0 <= i < N}", writes=["a"])
    comp.new_stmt(
        st.Scatter("a", (Var("i") + 1,), UFCall("a", [Var("i")]) + 1),
        "{[i] : 0 <= i < N}", reads=["a"], writes=["a"],
    )
    symtab = SymbolTable(arrays={"a"})
    with pytest.raises(st.UnsupportedStatement,
                       match="a both read and written in one nest"):
        get_backend("numpy").lower(
            comp.lower(), comp.name, ["N"], ["a"], symtab
        )
    lowering = get_backend("python").lower(
        comp.lower(), comp.name, ["N"], ["a"], symtab
    )
    namespace = base_namespace("python")
    exec(lowering.source, namespace)
    assert list(namespace["hazard"](5)["a"]) == [0, 1, 2, 3, 4, 5]


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
#: A representative slice of the pair matrix — sort, histogram,
#: binary-search, Morton, block and key-less permutation shapes — that
#: the C tier runs over every generator family of the fuzzer, with the
#: optimized and the unoptimized plan.
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
    kinds = CASE_KINDS_3D if dst in PLANNABLE_3D else CASE_KINDS_2D
    for optimize in (False, True):
        for seed, (kind, generate) in enumerate(kinds):
            rng = random.Random(seed)
            outcome = _run_case(generate(rng), src, dst, "c", optimize, rng)
            assert outcome is None, (
                f"{src}->{dst} on {kind} (optimize={optimize}): {outcome}"
            )


@needs_c
def test_duplicate_coordinates_match_c():
    _duplicates_agree("c")


@needs_c
def test_c_outputs_are_plain_python():
    coo = COOMatrix(2, 2, [0, 1], [1, 0], [1.0, 2.0])
    csr = convert(coo, "CSR", backend="c")
    assert _typed_fields(csr) == [(array, "q"), (array, "q"), (array, "d")]
