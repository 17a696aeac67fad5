"""Generated kernels on the compiled tiers.

A kernel is a typed program like a conversion, so the numpy and C
printers lower it too: every kernel kind on every container class
compiles on C and returns the python tier's values bit for bit; numpy
prints the vector kernels and refuses, by name, the two it has no
whole-array form for.  The symbol table's ``floats`` types ``Adata``,
``x`` and ``alpha`` as float64 on both.
"""

import pytest

from repro.backends import get_backend
from repro.formats import csr, get_format
from repro.formats.bindings import bind_source
from repro.formats.library import all_formats
from repro.kernels import KERNELS, KernelError, synthesize_kernel
from repro.runtime import (
    CONTAINERS,
    BCSCMatrix,
    BCSRMatrix,
    COOMatrix,
    COOTensor3D,
    CSCMatrix,
    CSFTensor,
    CSRMatrix,
    DCSRMatrix,
    DIAMatrix,
    ELLMatrix,
    MortonCOOMatrix,
    MortonCOOTensor3D,
)
from repro.spf import statements as st

from tests.tiers import needs_c

pytest.importorskip("numpy")

#: Values whose sums and products round, so an order or a type change
#: shows in the last bits.
DENSE = [
    [0.1, 0.0, -2.3, 0.0, 1 / 3],
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [7.7, 0.2, 0.0, 1e16, -0.7],
    [0.0, 3.3, 0.3, 0.0, 0.0],
]
TENSOR = COOTensor3D((3, 2, 4), [0, 1, 2, 2], [0, 1, 1, 0], [1, 0, 3, 2],
                     [0.1, 1 / 3, -2.3, 1e16])
VECTOR_KINDS = ("spmv", "spmv_t", "row_sums")


def _containers() -> list:
    """One container of every class ``run_kernel`` binds."""
    coo = COOMatrix.from_dense(DENSE)
    return [
        coo,
        MortonCOOMatrix.from_coo(coo),
        CSRMatrix.from_dense(DENSE),
        CSCMatrix.from_dense(DENSE),
        DIAMatrix.from_dense(DENSE),
        BCSRMatrix.from_dense(DENSE, 2),
        BCSCMatrix.from_dense(DENSE, 2),
        ELLMatrix.from_dense(DENSE),
        DCSRMatrix.from_dense(DENSE),
        TENSOR,
        MortonCOOTensor3D.from_coo(TENSOR),
        CSFTensor.from_coo(TENSOR),
    ]


def _cases(kinds) -> list:
    """``(container, kind)`` for each kind the container's rank has."""
    return [
        pytest.param(c, kind, id=f"{type(c).__name__}-{kind}")
        for c in _containers()
        for kind in kinds
        if c.layout.rank == 2 or kind not in VECTOR_KINDS
    ]


def _inputs(container, kind):
    """The kernel ``run_kernel`` would pick for ``container``, and its
    arguments."""
    name, env = bind_source(container)
    env["Adata"] = env.pop("Asrc")
    width = env["NR"] if kind == "spmv_t" else env["NC"]
    env["x"] = [0.1 * i - 1 / 7 for i in range(width)]
    env["alpha"] = 1 / 3
    kernel = synthesize_kernel(get_format(name), kind)
    return kernel, {p: env[p] for p in kernel.params}


def _run(kernel, backend, inputs):
    """The kernel's one output on ``backend``, as Python numbers."""
    tier = get_backend(backend)
    source = tier.lower(
        kernel.program, kernel.name, kernel.params, kernel.returns,
        kernel.symtab,
    ).source
    namespace = tier.namespace()
    exec(source, namespace)
    out = namespace[kernel.name](*[inputs[p] for p in kernel.params])
    return _bits(out[kernel.returns[0]])


def _bits(value):
    """Floats as their hex digits: equal only when bit for bit equal."""
    if hasattr(value, "tolist"):
        value = value.tolist()
    if isinstance(value, list):
        return [float.hex(v) for v in value]
    assert isinstance(value, float)
    return float.hex(value)


def test_cases_cover_every_container_class():
    assert {type(c) for c in _containers()} == set(CONTAINERS.values())
    assert len(_cases(KERNELS)) == 51


@needs_c
@pytest.mark.parametrize("container,kind", _cases(KERNELS))
def test_c_returns_the_python_tiers_bits(container, kind):
    kernel, inputs = _inputs(container, kind)
    before = {p: list(v) for p, v in inputs.items() if hasattr(v, "__len__")}
    expected = _bits(kernel(**inputs)[kernel.returns[0]])
    assert _run(kernel, "c", inputs) == expected
    assert {p: list(inputs[p]) for p in before} == before  # inputs unwritten


@pytest.mark.parametrize("container,kind", _cases(VECTOR_KINDS))
def test_numpy_vector_kernels_match_python(container, kind):
    kernel, inputs = _inputs(container, kind)
    expected = _bits(kernel(**inputs)[kernel.returns[0]])
    assert _run(kernel, "numpy", inputs) == expected


def test_every_library_kernel_prints_c():
    printed = 0
    for fmt in all_formats():
        for kind in KERNELS:
            try:
                kernel = synthesize_kernel(fmt, kind)
            except KernelError:
                continue  # a rank-2 kind of a rank-3 format
            assert "int repro_run(" in kernel.c_source, kernel.name
            printed += 1
    assert printed > 0


@pytest.mark.parametrize("kind,why", [
    ("scale", "Adata both read and written in one nest"),
    ("value_sum", "cannot accumulate into the scalar total in loop order"),
])
def test_numpy_refuses_by_name(kind, why):
    kernel = synthesize_kernel(csr(), kind)
    with pytest.raises(st.UnsupportedStatement, match=why):
        get_backend("numpy").lower(
            kernel.program, kernel.name, kernel.params, kernel.returns,
            kernel.symtab,
        )


@pytest.mark.parametrize("backend", ["numpy", pytest.param("c",
                                                            marks=needs_c)])
def test_csr_spmv_reads_float_inputs(backend):
    # Adata and x are float64 on every tier: read as int64 they truncate
    # to [1, 2, 0] and [0, 2], and the product reads [4, 0].
    kernel = synthesize_kernel(csr(), "spmv")
    inputs = dict(rowptr=[0, 2, 3], col2=[0, 1, 0], NR=2, NC=2, NNZ=3,
                  Adata=[1.5, 2.5, 0.25], x=[0.5, 2.0])
    assert kernel(**inputs)["y"] == [5.75, 0.125]
    assert _run(kernel, backend, inputs) == _bits([5.75, 0.125])
