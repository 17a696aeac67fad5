"""Shared fixtures for the benchmark suite.

Workload sizes are controlled by ``REPRO_BENCH_SCALE`` (default 0.02, the
fraction of each Table 3 matrix's published dimensions).  At 0.02 the
matrices carry tens of thousands of nonzeros — large enough that converter
runtime is dominated by per-nonzero work rather than call overhead, which
is what the scalar-vs-vectorized backend comparison needs to be meaningful.
Drop it back to 0.002 for a quick smoke pass of the interpreted converters.

``REPRO_BENCH_BACKENDS`` selects the lowering backends benchmarked for the
synthesized converters (comma-separated, default ``python,numpy``).
"""

import os

import pytest

from repro import convert, get_conversion
from repro.backends import get_backend
from repro.datagen import load, load_tensor
from repro.formats import container_to_env

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.02"))
TENSOR_SCALE = float(os.environ.get("REPRO_BENCH_TENSOR_SCALE", "0.00001"))

#: Representative Table 3 matrices: one per structural family plus the two
#: matrices the paper's DIA discussion names (22 vs 5 diagonals).
MATRICES = ["jnlbrng1", "majorbasis", "ecology1", "cant", "scircuit"]
DIA_MATRICES = ["jnlbrng1", "majorbasis", "ecology1"]
TENSORS = ["darpa", "fb-m", "fb-s"]


@pytest.fixture(scope="session")
def coo_matrices():
    return {name: load(name, scale=SCALE) for name in MATRICES}


@pytest.fixture(scope="session")
def dia_matrices():
    return {name: load(name, scale=SCALE) for name in DIA_MATRICES}


@pytest.fixture(scope="session")
def csr_matrices(coo_matrices):
    # Built sparsely (from_dense would materialize O(nrows*ncols) cells,
    # prohibitive for the large Table 3 shapes at timing scales).
    return {
        name: convert(coo, "CSR") for name, coo in coo_matrices.items()
    }


@pytest.fixture(scope="session")
def tensors():
    return {name: load_tensor(name, scale=TENSOR_SCALE) for name in TENSORS}


BACKENDS = tuple(
    os.environ.get("REPRO_BENCH_BACKENDS", "python,numpy").split(",")
)


@pytest.fixture(params=BACKENDS)
def backend(request):
    """Lowering backend for the synthesized converter under test."""
    return request.param


def inspector_inputs(conversion, container, backend="python"):
    """The input dict for a synthesized conversion, in the backend's
    native representation (:meth:`repro.backends.Backend.native_inputs`:
    lists for the interpreted tier, zero-copy numpy views otherwise), so
    no boundary copy is charged to the inspector, mirroring how the
    baselines receive their own preferred layouts."""
    env = container_to_env(container)
    return get_backend(backend).native_inputs(
        {p: env[p] for p in conversion.params}
    )


def synthesized(src, dst, **kwargs):
    conv = get_conversion(src, dst, **kwargs)
    conv.compile()
    return conv
