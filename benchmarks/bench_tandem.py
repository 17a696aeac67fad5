"""Tandem optimization benchmark: convert+kernel vs the collapsed pipeline.

Quantifies the Section 1 claim that synthesizing conversions into SPF lets
inspector and executor be optimized together: for a single kernel
application, the tandem-optimized pipeline (conversion dead-code
eliminated, executor retargeted to the source format) should clearly beat
running the conversion followed by the destination-format kernel.
"""

import pytest

from repro.datagen import load
from repro.formats import container_to_env, csc, csr, scoo
from repro.synthesis import tandem

from conftest import SCALE

MATRIX = "majorbasis"


def _inputs():
    coo = load(MATRIX, scale=SCALE)
    env = container_to_env(coo)
    inputs = {k: env[k] for k in ("row1", "col1", "Asrc", "NR", "NC", "NNZ")}
    inputs["x"] = [1.0] * coo.ncols
    return inputs


@pytest.mark.parametrize("dst", ["CSR", "CSC"])
def test_naive_convert_then_kernel(benchmark, dst):
    factory = {"CSR": csr, "CSC": csc}[dst]
    result = tandem(scoo(), factory(), "spmv")
    inputs = _inputs()
    result.run_naive(**inputs)  # compile once, outside the timing
    benchmark.group = f"tandem: SCOO->{dst} + spmv x1"
    benchmark(lambda: result.run_naive(**inputs))


@pytest.mark.parametrize("dst", ["CSR", "CSC"])
def test_tandem_optimized(benchmark, dst):
    factory = {"CSR": csr, "CSC": csc}[dst]
    result = tandem(scoo(), factory(), "spmv")
    assert result.conversion_eliminated
    inputs = _inputs()
    result.run_optimized(**inputs)
    benchmark.group = f"tandem: SCOO->{dst} + spmv x1"
    benchmark(lambda: result.run_optimized(**inputs))
