"""One admission per conversion.

The gate (:func:`repro.verify.gate.check_input`) binds a source once,
checks that environment and names the source's descriptor from the same
pass; :func:`repro.convert`, :meth:`ConversionPlanner.execute` and
:func:`repro.kernels.run_kernel` run on that binding.  These tests pin
what each entry point builds and scans, and that the gate names every
source as :func:`repro.formats.container_format` does.
"""

import pytest

from repro import (
    BCSRMatrix,
    COOMatrix,
    COOTensor3D,
    CSCMatrix,
    CSRMatrix,
    DIAMatrix,
    DuplicateCoordinateError,
    MortonCOOMatrix,
    MortonCOOTensor3D,
    UnsortedInputError,
    container_format,
    container_to_env,
    convert,
    convert_via_plan,
)
from repro.formats import BindingError, invariants
from repro.formats.levels import Composition
from repro.kernels import run_kernel
from repro.planner import default_planner, default_planner_3d
from repro.runtime import BCSCMatrix, DCSRMatrix
from repro.runtime.container import compare_contents
from repro.verify import VALIDATE_LEVELS, check_input

DENSE = [
    [1.0, 0.0, 2.0, 0.0, 0.0],
    [0.0, 3.0, 0.0, 0.0, 4.0],
    [5.0, 0.0, 0.0, 6.0, 0.0],
    [0.0, 0.0, 7.0, 0.0, 0.0],
]


def _tensor():
    return COOTensor3D(
        (2, 2, 3), [0, 0, 1], [0, 1, 1], [2, 0, 1], [1.0, 2.0, 3.0]
    )


@pytest.fixture
def scans(monkeypatch):
    """The compositions each order scan ran on, from now on."""
    seen = []
    real = invariants.first_unsorted_position

    def spy(comp, env):
        seen.append(comp.name)
        return real(comp, env)

    monkeypatch.setattr(invariants, "first_unsorted_position", spy)
    return seen


def _builds(monkeypatch, container) -> list:
    """The environments built over ``container``'s own value array, from
    now on, by the name of the composition each binds."""
    values = getattr(container, type(container).layout.values)
    real = Composition.env_from_arrays
    seen = []

    def spy(self, shape, data, *args, **kwargs):
        if data is values:
            seen.append(self.name)
        return real(self, shape, data, *args, **kwargs)

    monkeypatch.setattr(Composition, "env_from_arrays", spy)
    return seen


class TestOrderScan:
    @pytest.mark.parametrize("entry", [convert, convert_via_plan],
                             ids=["convert", "convert_via_plan"])
    @pytest.mark.parametrize("validate", VALIDATE_LEVELS)
    @pytest.mark.parametrize("rank", [2, 3])
    def test_sorted_coo_scans(self, scans, entry, validate, rank):
        # The gate checks a sorted COO or COO3D as its sorted form, so
        # passing names it; only at "off" does one scan detect the order.
        expected = 1 if validate == "off" else 0
        if rank == 2:
            source, dst = COOMatrix.from_dense(DENSE), "CSR"
        else:
            source, dst = _tensor(), "MCOO3"
        entry(source, dst)  # synthesize outside the count
        scans.clear()
        out = entry(source, dst, validate=validate)
        assert len(scans) == expected, scans
        compare_contents(out, source)


#: Sources by name: the container and the ``assume_sorted`` it converts
#: under.
SOURCES = {
    "sorted-coo": (lambda: COOMatrix.from_dense(DENSE), True),
    "unsorted-coo": (
        lambda: COOMatrix(4, 5, [2, 0, 1], [0, 2, 1], [5.0, 2.0, 3.0]),
        False,
    ),
    "csr": (lambda: CSRMatrix.from_dense(DENSE), True),
    "bcsr3": (lambda: BCSRMatrix.from_dense(DENSE, 3), True),
    "coo3d": (_tensor, True),
}


class TestOneBind:
    @pytest.mark.parametrize("validate", ["off", "inputs"])
    @pytest.mark.parametrize("entry", ["convert", "execute"])
    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_one_bind(self, monkeypatch, name, entry, validate):
        make, assume_sorted = SOURCES[name]
        source = make()
        if type(source).layout.rank == 3:
            dst, planner = "MCOO3", default_planner_3d()
        else:
            dst, planner = "CSC", default_planner()
        run = convert if entry == "convert" else planner.execute
        run(source, dst, assume_sorted=assume_sorted)  # synthesize first
        builds = _builds(monkeypatch, source)
        out = run(source, dst, assume_sorted=assume_sorted,
                  validate=validate)
        assert len(builds) == 1, builds
        compare_contents(out, source)

    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_run_kernel_binds_once(self, monkeypatch, name):
        source = SOURCES[name][0]()
        total = run_kernel(source, "value_sum")  # generate first
        builds = _builds(monkeypatch, source)
        assert run_kernel(source, "value_sum") == total
        assert len(builds) == 1, builds
        assert total == pytest.approx(sum(source.to_dict().values()))


class MyCSR(CSRMatrix):
    pass


#: The containers of ``TestContainerFormat`` and the DCSR, BCSC and
#: subclass cases of ``tests/formats/test_bindings.py``.
FORMAT_CASES = {
    "sorted-coo": lambda: COOMatrix.from_dense([[1.0, 0.0], [2.0, 3.0]]),
    "unsorted-coo": lambda: COOMatrix(2, 2, [1, 0], [0, 0], [2.0, 1.0]),
    "csr": lambda: CSRMatrix.from_dense([[1.0, 0.0], [2.0, 3.0]]),
    "csc": lambda: CSCMatrix.from_dense([[1.0, 0.0], [2.0, 3.0]]),
    "dia": lambda: DIAMatrix.from_dense([[1.0, 0.0], [2.0, 3.0]]),
    "mcoo": lambda: MortonCOOMatrix.from_coo(
        COOMatrix.from_dense([[1.0, 0.0], [2.0, 3.0]])
    ),
    "sorted-coo3d": lambda: COOTensor3D(
        (2, 2, 2), [0, 1], [0, 1], [0, 1], [1.0, 2.0]
    ),
    "unsorted-coo3d": lambda: COOTensor3D(
        (2, 2, 2), [1, 0], [1, 0], [1, 0], [2.0, 1.0]
    ),
    "mcoo3": lambda: MortonCOOTensor3D.from_coo(
        COOTensor3D((2, 2, 2), [0, 1], [0, 1], [0, 1], [1.0, 2.0])
    ),
    "dcsr": lambda: DCSRMatrix.from_dense([[0.0, 1.0], [0.0, 0.0],
                                           [2.0, 3.0]]),
    "bcsc": lambda: BCSCMatrix.from_dense([[1.0, 0.0], [0.0, 2.0]], 2),
    "subclass": lambda: MyCSR.from_dense([[1.0, 0.0], [2.0, 3.0]]),
}


class TestNames:
    @pytest.mark.parametrize("assume_sorted", [True, False])
    @pytest.mark.parametrize("level", VALIDATE_LEVELS)
    @pytest.mark.parametrize("name", sorted(FORMAT_CASES))
    def test_gate_name_matches(self, name, level, assume_sorted):
        # The gate names each source as container_format does.
        container = FORMAT_CASES[name]()
        expected = container_format(container, assume_sorted=assume_sorted)
        if name.startswith("unsorted") and assume_sorted and level != "off":
            # The broken promise is still a rejection, with its position
            # and remedy.
            with pytest.raises(UnsortedInputError) as exc:
                check_input(container, level=level, assume_sorted=True)
            assert exc.value.position == 1
            assert "assume_sorted=True promised" in str(exc.value)
            assert exc.value.remedy.startswith("pass assume_sorted=False")
            return
        name, env = check_input(container, level=level,
                                assume_sorted=assume_sorted)
        assert name == expected
        assert env == container_to_env(container)

    @pytest.mark.parametrize("level", VALIDATE_LEVELS)
    def test_unbindable_raises(self, level):
        with pytest.raises(BindingError):
            check_input(object(), level=level)


class TestUnpromisedOrder:
    """``assume_sorted=None``, the daemon's ``null``: the gate checks the
    declared format and names the sorted one when the entries strictly
    increase, so nothing scans for the order before it."""

    @pytest.mark.parametrize("source,named", [
        (COOMatrix.from_dense(DENSE), "SCOO"),
        (COOMatrix(4, 5, [2, 0, 1], [0, 2, 1], [5.0, 2.0, 3.0]), "COO"),
        (_tensor(), "SCOO3D"),
        (COOTensor3D((2, 2, 3), [1, 0, 0], [1, 0, 1], [1, 2, 0],
                     [3.0, 1.0, 2.0]), "COO3D"),
    ], ids=["sorted", "shuffled", "sorted-3d", "shuffled-3d"])
    def test_the_check_names_the_order(self, scans, source, named):
        assert check_input(source, assume_sorted=None)[0] == named
        assert scans == []

    def test_duplicates_are_still_refused(self):
        source = COOMatrix(4, 5, [0, 0, 1], [1, 1, 2], [1.0, 2.0, 3.0])
        with pytest.raises(DuplicateCoordinateError):
            check_input(source, assume_sorted=None)

    @pytest.mark.parametrize("row,named", [
        ([0, 0, 1, 3], "SCOO"), ([3, 0, 1, 0], "COO"),
    ], ids=["sorted", "shuffled"])
    def test_daemon_null_binds_once_and_scans_nothing(self, monkeypatch,
                                                      scans, row, named):
        from repro.serve.protocol import parse_convert_request
        from repro.serve.server import ConversionServer

        request = parse_convert_request({
            "dst": "CSR", "matrix": {"rows": 4, "cols": 5, "row": row,
                                     "col": [0, 2, 4, 3],
                                     "val": [1.0, 2.0, 3.0, 4.0]},
        })
        assert request["assume_sorted"] is None
        server = ConversionServer()
        assert server._convert_body(request)[0] == 200  # synthesize first
        scans.clear()
        builds = _builds(monkeypatch, request["matrix"])
        names = []
        real = check_input

        def spy(*args, **kwargs):
            admitted = real(*args, **kwargs)
            names.append(admitted[0])
            return admitted

        monkeypatch.setattr("repro.verify.gate.check_input", spy)
        status, doc = server._convert_body(request)
        assert status == 200, doc
        assert scans == [] and len(builds) == 1, (scans, builds)
        assert names == [named]

    @pytest.mark.parametrize("flags", [[], ["--plan"]], ids=["direct", "plan"])
    def test_cli_convert_scans_nothing(self, tmp_path, capsys, scans, flags):
        from repro.__main__ import main
        from repro.io import write_matrix

        source = tmp_path / "in.mtx"
        write_matrix(COOMatrix.from_dense(DENSE), source)
        assert main(["convert", str(source), str(tmp_path / "out.mtx"),
                     "--to", "DIA", *flags]) == 0
        assert scans == []
        if flags:
            assert "plan: SCOO -> DIA" in capsys.readouterr().err
