"""Tests for hand-written and descriptor-generated sparse kernels."""

import random

import pytest

from repro.formats import bcsr, coo3d, csc, csr, dia, get_format, mcoo, scoo
from repro.kernels import (
    KERNELS,
    KernelError,
    dense_spmv,
    dense_spmv_t,
    frobenius_sq,
    row_sums,
    run_kernel,
    spmv,
    spmv_bcsr,
    spmv_coo,
    spmv_csc,
    spmv_csr,
    spmv_dia,
    spmv_ell,
    spmv_t_csc,
    spmv_t_csr,
    synthesize_kernel,
)
from repro.runtime import (
    BCSRMatrix,
    COOMatrix,
    CSCMatrix,
    CSRMatrix,
    DIAMatrix,
    ELLMatrix,
    MortonCOOMatrix,
)


def random_dense(nrows, ncols, density=0.35, seed=0):
    rng = random.Random(seed)
    return [
        [
            round(rng.uniform(-3, 3), 3) if rng.random() < density else 0.0
            for _ in range(ncols)
        ]
        for _ in range(nrows)
    ]


DENSE = random_dense(9, 11, seed=21)
X = [round(random.Random(5).uniform(-1, 1), 3) for _ in range(11)]
X_ROWS = [round(random.Random(6).uniform(-1, 1), 3) for _ in range(9)]
REF_Y = dense_spmv(DENSE, X)
REF_YT = dense_spmv_t(DENSE, X_ROWS)


def close(a, b):
    return all(abs(p - q) < 1e-9 for p, q in zip(a, b)) and len(a) == len(b)


class TestHandwrittenSpMV:
    def test_coo(self):
        assert close(spmv_coo(COOMatrix.from_dense(DENSE), X), REF_Y)

    def test_csr(self):
        assert close(spmv_csr(CSRMatrix.from_dense(DENSE), X), REF_Y)

    def test_csc(self):
        assert close(spmv_csc(CSCMatrix.from_dense(DENSE), X), REF_Y)

    def test_dia(self):
        assert close(spmv_dia(DIAMatrix.from_dense(DENSE), X), REF_Y)

    def test_bcsr(self):
        assert close(spmv_bcsr(BCSRMatrix.from_dense(DENSE, 3), X), REF_Y)

    def test_ell(self):
        assert close(spmv_ell(ELLMatrix.from_dense(DENSE), X), REF_Y)

    def test_transposed_variants(self):
        assert close(spmv_t_csc(CSCMatrix.from_dense(DENSE), X_ROWS), REF_YT)
        assert close(spmv_t_csr(CSRMatrix.from_dense(DENSE), X_ROWS), REF_YT)

    def test_dispatch(self):
        for container in (
            COOMatrix.from_dense(DENSE),
            CSRMatrix.from_dense(DENSE),
            CSCMatrix.from_dense(DENSE),
            DIAMatrix.from_dense(DENSE),
            BCSRMatrix.from_dense(DENSE, 2),
            ELLMatrix.from_dense(DENSE),
        ):
            assert close(spmv(container, X), REF_Y)

    def test_dispatch_unknown(self):
        with pytest.raises(TypeError):
            spmv(object(), X)

    def test_row_sums(self):
        out = row_sums(CSRMatrix.from_dense(DENSE))
        assert close(out, [sum(r) for r in DENSE])

    def test_frobenius(self):
        expected = sum(v * v for row in DENSE for v in row)
        for container in (
            COOMatrix.from_dense(DENSE),
            CSRMatrix.from_dense(DENSE),
            CSCMatrix.from_dense(DENSE),
            DIAMatrix.from_dense(DENSE),
        ):
            assert abs(frobenius_sq(container) - expected) < 1e-9


class TestGeneratedKernels:
    FORMATS = ["SCOO", "MCOO", "CSR", "CSC", "DIA"]

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_spmv_matches_dense(self, fmt):
        kernel = synthesize_kernel(get_format(fmt), "spmv")
        assert kernel.source.startswith("def ")
        container = _container_for(fmt)
        assert close(run_kernel(container, "spmv", x=X), REF_Y)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_spmv_t_matches_dense(self, fmt):
        container = _container_for(fmt)
        assert close(run_kernel(container, "spmv_t", x=X_ROWS), REF_YT)

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_row_sums(self, fmt):
        container = _container_for(fmt)
        assert close(run_kernel(container, "row_sums"),
                     [sum(r) for r in DENSE])

    def test_value_sum(self):
        container = CSRMatrix.from_dense(DENSE)
        total = run_kernel(container, "value_sum")
        assert abs(total - sum(sum(r) for r in DENSE)) < 1e-9

    def test_scale_does_not_mutate(self):
        container = CSRMatrix.from_dense(DENSE)
        before = list(container.val)
        scaled = run_kernel(container, "scale", alpha=3.0)
        assert container.val.tolist() == before
        assert close(scaled, [3.0 * v for v in before])

    def test_generated_matches_handwritten(self):
        container = DIAMatrix.from_dense(DENSE)
        assert close(run_kernel(container, "spmv", x=X),
                     spmv_dia(container, X))

    def test_bcsr_source_kernel(self):
        kernel = synthesize_kernel(bcsr(2), "spmv")
        container = BCSRMatrix.from_dense(DENSE, 2)
        from repro.formats import container_to_env

        env = container_to_env(container)
        env["Adata"] = env.pop("Asrc")
        env["x"] = X
        out = kernel(**{p: env[p] for p in kernel.params})
        assert close(out["y"], REF_Y)

    def test_3d_value_sum(self):
        kernel = synthesize_kernel(coo3d(sorted_lex=True), "value_sum")
        out = kernel(
            row1=[0, 1], col1=[1, 0], z1=[0, 1], Adata=[2.0, 3.0],
            NR=2, NC=2, NZ=2, NNZ=2,
        )
        assert out["total"] == 5.0

    def test_rank_check(self):
        with pytest.raises(KernelError):
            synthesize_kernel(coo3d(), "spmv")

    def test_unknown_kernel(self):
        with pytest.raises(KernelError):
            synthesize_kernel(csr(), "cholesky")

    def test_kernel_catalog(self):
        assert set(KERNELS) == {"spmv", "spmv_t", "row_sums", "scale",
                                "value_sum"}

    def test_c_source_emitted(self):
        kernel = synthesize_kernel(csr(), "spmv")
        assert "for (int" in kernel.c_source

    def test_generated_csr_spmv_shape(self):
        # The canonical CSR SpMV loop must come out of the generator.
        kernel = synthesize_kernel(csr(), "spmv")
        assert "for k in range(rowptr[ii], rowptr[ii + 1]):" in kernel.source
        assert "y[ii] += Adata[k] * x[jj]" in kernel.source


def _container_for(fmt: str):
    if fmt == "SCOO":
        return COOMatrix.from_dense(DENSE)
    if fmt == "MCOO":
        return MortonCOOMatrix.from_coo(COOMatrix.from_dense(DENSE))
    if fmt == "CSR":
        return CSRMatrix.from_dense(DENSE)
    if fmt == "CSC":
        return CSCMatrix.from_dense(DENSE)
    if fmt == "DIA":
        return DIAMatrix.from_dense(DENSE)
    raise KeyError(fmt)
