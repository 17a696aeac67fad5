"""Unit tests for container <-> descriptor bindings."""

import pytest

from repro.formats import (
    BindingError,
    container_format,
    container_to_env,
    get_format,
    outputs_to_container,
)
from repro.runtime import (
    BCSRMatrix,
    COOMatrix,
    COOTensor3D,
    CSCMatrix,
    CSRMatrix,
    DIAMatrix,
    MortonCOOMatrix,
    MortonCOOTensor3D,
)

DENSE = [[1.0, 0.0], [2.0, 3.0]]


class TestContainerFormat:
    def test_sorted_coo_is_scoo(self):
        assert container_format(COOMatrix.from_dense(DENSE)) == "SCOO"

    def test_unsorted_coo_is_coo(self):
        coo = COOMatrix(2, 2, [1, 0], [0, 0], [2.0, 1.0])
        assert container_format(coo) == "COO"

    def test_assume_sorted_false(self):
        coo = COOMatrix.from_dense(DENSE)
        assert container_format(coo, assume_sorted=False) == "COO"

    def test_other_formats(self):
        assert container_format(CSRMatrix.from_dense(DENSE)) == "CSR"
        assert container_format(CSCMatrix.from_dense(DENSE)) == "CSC"
        assert container_format(DIAMatrix.from_dense(DENSE)) == "DIA"
        assert container_format(
            MortonCOOMatrix.from_coo(COOMatrix.from_dense(DENSE))
        ) == "MCOO"

    def test_tensor_formats(self):
        t = COOTensor3D((2, 2, 2), [0, 1], [0, 1], [0, 1], [1.0, 2.0])
        assert container_format(t) == "SCOO3D"
        unsorted = COOTensor3D((2, 2, 2), [1, 0], [1, 0], [1, 0], [2.0, 1.0])
        assert container_format(unsorted) == "COO3D"
        assert container_format(MortonCOOTensor3D.from_coo(t)) == "MCOO3"

    def test_unknown_container(self):
        with pytest.raises(BindingError):
            container_format(object())


class TestContainerToEnv:
    def test_coo_env(self):
        coo = COOMatrix.from_dense(DENSE)
        env = container_to_env(coo)
        assert env["row1"] == coo.row
        assert env["NNZ"] == 3
        assert env["NR"] == 2 and env["NC"] == 2

    def test_csr_env(self):
        csr = CSRMatrix.from_dense(DENSE)
        env = container_to_env(csr)
        assert env["rowptr"] == csr.rowptr
        assert env["col2"] == csr.col
        assert env["Asrc"] == csr.val

    def test_dia_env(self):
        dia = DIAMatrix.from_dense(DENSE)
        env = container_to_env(dia)
        assert env["off"] == dia.off
        assert env["ND"] == dia.ndiags

    def test_bcsr_env(self):
        bcsr = BCSRMatrix.from_dense(DENSE, bsize=2)
        env = container_to_env(bcsr)
        assert env["browptr"] == bcsr.browptr
        assert env["NBR"] == 1

    def test_tensor_env(self):
        t = COOTensor3D((2, 3, 4), [0], [1], [2], [1.0])
        env = container_to_env(t)
        assert env["NZ"] == 4
        assert env["z1"].tolist() == [2]


class TestOutputsToContainer:
    def test_csr_outputs(self):
        outputs = {"rowptr": [0, 1, 3], "col2": [0, 0, 1],
                   "Adst": [1.0, 2.0, 3.0]}
        m = outputs_to_container("CSR", outputs, {}, {"NR": 2, "NC": 2})
        assert isinstance(m, CSRMatrix)
        m.check()

    def test_uf_output_map_translates_names(self):
        outputs = {"rowptr2": [0, 1, 3], "col22": [0, 0, 1],
                   "Adst": [1.0, 2.0, 3.0]}
        m = outputs_to_container(
            "CSR", outputs, {"rowptr": "rowptr2", "col2": "col22"},
            {"NR": 2, "NC": 2},
        )
        assert m.rowptr.tolist() == [0, 1, 3]

    def test_unknown_format(self):
        with pytest.raises(BindingError):
            outputs_to_container("ESB", {"Adst": []}, {}, {})

class TestLevelDrivenBindings:
    """Bindings resolved from level structure, not hand-written tables."""

    def test_env_matches_legacy_path(self):
        from repro.runtime import ELLMatrix

        from .legacy_env import legacy_container_to_env

        dense = [[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [4.0, 5.0, 6.0]]
        containers = [
            COOMatrix.from_dense(dense),
            CSRMatrix.from_dense(dense),
            CSCMatrix.from_dense(dense),
            DIAMatrix.from_dense(dense),
            BCSRMatrix.from_dense(dense, 2),
            ELLMatrix.from_dense(dense),
        ]
        for container in containers:
            assert container_to_env(container) == \
                legacy_container_to_env(container)

    def test_format_without_composition_does_not_bind(self, monkeypatch):
        """No name-based fallback: a format whose descriptor carries no
        level composition cannot be bound or checked."""
        from types import SimpleNamespace

        from repro.formats import library

        monkeypatch.setattr(library, "get_format",
                            lambda name: SimpleNamespace(levels=None))
        csr = CSRMatrix.from_dense(DENSE)
        for bind in (container_to_env, lambda c: c.check()):
            with pytest.raises(BindingError, match="no level composition"):
                bind(csr)

    def test_parameterized_block_sizes_bind(self):
        """Regression: BCSR{k}/BCSC{k} names must bind the right arrays."""
        from repro.runtime import BCSCMatrix

        dense = [[float(i * 5 + j + 1) if (i + j) % 3 else 0.0
                  for j in range(5)] for i in range(5)]
        for bsize in (2, 3, 4):
            bcsr = BCSRMatrix.from_dense(dense, bsize)
            env = container_to_env(bcsr)
            assert env["browptr"] == bcsr.browptr
            assert env["bcol"] == bcsr.bcol
            assert env["NB"] == bcsr.nblocks
            bcsc = BCSCMatrix.from_dense(dense, bsize)
            env = container_to_env(bcsc)
            assert env["bcolptr"] == bcsc.bcolptr
            assert env["brow"] == bcsc.brow
            assert env["NB"] == bcsc.nblocks

    def test_padded_ell_binds_width_and_sentinel(self):
        from repro.runtime import ELLMatrix

        dense = [[1.0, 0.0, 2.0], [0.0, 3.0, 0.0]]
        # Over-allocated width: the padded level must bind W from the
        # container, not recompute the max row length.
        ell = ELLMatrix.from_dense(dense, width=4)
        env = container_to_env(ell)
        assert env["W"] == 4
        assert env["ellcol"] == ell.col

    def test_dcsr_env(self):
        from repro.runtime import DCSRMatrix

        dense = [[0.0, 1.0], [0.0, 0.0], [2.0, 3.0]]
        dcsr = DCSRMatrix.from_dense(dense)
        env = container_to_env(dcsr)
        assert env["rowidx"].tolist() == [0, 2]
        assert env["dptr"] == dcsr.dptr
        assert env["dcol"] == dcsr.dcol
        assert env["NDR"] == 2
        assert container_format(dcsr) == "DCSR"

    def test_bcsc_env(self):
        from repro.runtime import BCSCMatrix

        dense = [[1.0, 0.0], [0.0, 2.0]]
        bcsc = BCSCMatrix.from_dense(dense, 2)
        env = container_to_env(bcsc)
        assert env["NBC"] == 1 and env["NBR"] == 1
        assert container_format(bcsc) == "BCSC"

    def test_register_container_round_trip(self):
        from repro.formats.bindings import register_container

        class FakeCSR(CSRMatrix):
            pass

        register_container(
            FakeCSR, "CSR",
            lambda c: [None, {"ptr": c.rowptr, "idx": c.col}],
        )
        try:
            fake = FakeCSR.from_dense(DENSE)
            assert container_format(fake) == "CSR"
            assert container_to_env(fake)["rowptr"] == fake.rowptr
        finally:
            from repro.formats.bindings import _CONTAINERS

            _CONTAINERS[:] = [(cls, b) for cls, b in _CONTAINERS
                              if cls is not FakeCSR]

    def test_blocked_destination_builders(self):
        from repro.runtime import BCSCMatrix

        outputs = {"bcolptr": [0, 1], "brow": [0],
                   "Adst": [1.0, 0.0, 0.0, 2.0]}
        m = outputs_to_container("BCSC", outputs, {}, {"NR": 2, "NC": 2})
        assert isinstance(m, BCSCMatrix)
        m.check()
        # Parameterized names materialize the suffix block size.
        outputs3 = {"bcolptr": [0, 1], "brow": [0],
                    "Adst": [1.0] + [0.0] * 8}
        m3 = outputs_to_container("BCSC3", outputs3, {},
                                  {"NR": 3, "NC": 3})
        assert m3.bsize == 3


def test_env_composition_matches_sorted_binding():
    """COO and SCOO bind the same UF names, so the env needs no scan."""
    sorted_coo = COOMatrix(3, 3, [0, 1, 2], [2, 0, 1], [1.0, 2.0, 3.0])
    unsorted = COOMatrix(3, 3, [2, 0, 1], [1, 2, 0], [3.0, 1.0, 2.0])
    for container, scoo in ((sorted_coo, "SCOO"), (unsorted, "COO")):
        env = container_to_env(container)
        comp = get_format(scoo).levels
        assert env == comp.env_from_arrays(
            (container.nrows, container.ncols), container.val,
            [{"coord": container.row}, {"coord": container.col}],
        )
    tensor = COOTensor3D((2, 2, 2), [0, 1], [1, 0], [0, 1], [1.0, 2.0])
    shuffled = COOTensor3D((2, 2, 2), [1, 0], [0, 1], [1, 0], [2.0, 1.0])
    for container, name in ((tensor, "SCOO3D"), (shuffled, "COO3D")):
        comp = get_format(name).levels
        assert container_to_env(container) == comp.env_from_arrays(
            container.dims, container.val,
            [{"coord": container.row}, {"coord": container.col},
             {"coord": container.z}],
        )
