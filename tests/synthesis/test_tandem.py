"""Tests for the inspector/executor tandem optimization."""

import importlib
import random

import pytest

from repro import COOMatrix
from repro.formats import csc, csr, dia, mcoo, scoo
from repro.kernels import KernelError, dense_spmv
from repro.synthesis import tandem


def workload(seed=0, nrows=8, ncols=10):
    rng = random.Random(seed)
    dense = [
        [rng.choice([0, 0, 0, 1, 2]) * 1.0 for _ in range(ncols)]
        for _ in range(nrows)
    ]
    coo = COOMatrix.from_dense(dense)
    x = [round(rng.uniform(-1, 1), 3) for _ in range(ncols)]
    inputs = dict(
        row1=coo.row, col1=coo.col, Asrc=coo.val,
        NR=nrows, NC=ncols, NNZ=coo.nnz, x=x,
    )
    return dense, x, inputs


class TestScooCsrSpmv:
    def setup_method(self):
        self.result = tandem(scoo(), csr(), "spmv")

    def test_conversion_fully_eliminated(self):
        assert self.result.conversion_eliminated
        assert self.result.conversion_statements_removed > 0

    def test_optimized_reads_source_directly(self):
        assert "Asrc[n]" in self.result.optimized_source
        assert "rowptr" not in self.result.optimized_source

    def test_naive_and_optimized_agree_with_dense(self):
        dense, x, inputs = workload(seed=1)
        reference = dense_spmv(dense, x)
        naive = self.result.run_naive(**inputs)["y"]
        optimized = self.result.run_optimized(**inputs)["y"]
        assert all(abs(a - b) < 1e-9 for a, b in zip(naive, reference))
        assert all(abs(a - b) < 1e-9 for a, b in zip(optimized, reference))

    def test_notes_describe_the_optimization(self):
        joined = " ".join(self.result.notes)
        assert "retargeted" in joined
        assert "dead code elimination" in joined


@pytest.mark.parametrize("dst_factory", [csr, csc, dia, mcoo],
                         ids=["CSR", "CSC", "DIA", "MCOO"])
@pytest.mark.parametrize("kind", ["spmv", "spmv_t", "row_sums", "value_sum"])
class TestAllDestinations:
    def test_pipelines_agree(self, dst_factory, kind):
        result = tandem(scoo(), dst_factory(), kind)
        assert result.conversion_eliminated
        dense, x, inputs = workload(seed=2)
        if kind == "spmv_t":
            inputs["x"] = [0.5] * len(dense)
        naive = result.run_naive(**inputs)
        optimized = result.run_optimized(**inputs)
        key = result.returns[0]
        a, b = naive[key], optimized[key]
        if isinstance(a, list):
            assert all(abs(p - q) < 1e-9 for p, q in zip(a, b))
        else:
            assert abs(a - b) < 1e-9


class TestMetadata:
    def test_params_are_source_side(self):
        result = tandem(scoo(), csr(), "spmv")
        assert "row1" in result.params
        assert "x" in result.params
        assert "rowptr" not in result.params

    def test_returns_are_kernel_outputs(self):
        assert tandem(scoo(), csr(), "spmv").returns == ("y",)
        assert tandem(scoo(), csr(), "value_sum").returns == ("total",)


class TestRefusals:
    @pytest.mark.parametrize("dst_factory", [csr, csc, dia, mcoo],
                             ids=["CSR", "CSC", "DIA", "MCOO"])
    def test_scale_is_refused_before_synthesis(self, dst_factory,
                                               monkeypatch):
        # scale's output is the destination's value array in the
        # destination's layout, which no kernel over the source produces.
        module = importlib.import_module("repro.synthesis.tandem")
        monkeypatch.setattr(module, "synthesize", None)
        with pytest.raises(KernelError,
                           match=r"'scale'.*value array.*layout"):
            tandem(scoo(), dst_factory(), "scale")
