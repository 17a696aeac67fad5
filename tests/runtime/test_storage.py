"""The storage contract of the runtime containers.

Index fields are ``array('q')`` and value fields ``array('d')``, on every
container and every tier, empty fields included; the numpy and C tiers
read those buffers in place and read-only; interpreted code reads lists;
a constructor copies what the caller passes and rejects what int64 /
float64 cannot hold with an error naming the field and the position.
"""

from __future__ import annotations

import dataclasses
import json
from array import array

import pytest

from repro import convert, get_conversion
from repro.backends import BackendUnavailableError, get_backend
from repro.errors import BoundsError, StructureError
from repro.formats import container_to_env
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
    HiCOOTensor,
    MortonCOOMatrix,
    MortonCOOTensor3D,
)
from repro.runtime.npvec import ASARRAY_FLOAT, ASARRAY_INT

np = pytest.importorskip("numpy")

DENSE = [[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [3.0, 4.0, 0.0]]
EMPTY = [[0.0, 0.0], [0.0, 0.0]]
TENSOR = COOTensor3D((3, 2, 2), [0, 1, 2], [0, 1, 1], [1, 0, 1],
                     [1.0, 2.0, 3.0])
VALUE_FIELDS = ("val", "data")


def _tier(name: str):
    try:
        get_backend(name).require()
    except BackendUnavailableError as err:
        pytest.skip(f"{name} tier unavailable: {err}")
    return name


@pytest.fixture(params=("python", "numpy", "c"))
def tier(request):
    return _tier(request.param)


def _containers(dense) -> list:
    """One container of every registered kind, built from ``dense``."""
    coo = COOMatrix.from_dense(dense)
    tensor = TENSOR if dense is DENSE else COOTensor3D((2, 2, 2), [], [],
                                                      [], [])
    return [
        coo,
        MortonCOOMatrix.from_coo(coo),
        CSRMatrix.from_dense(dense),
        CSCMatrix.from_dense(dense),
        DIAMatrix.from_dense(dense),
        BCSRMatrix.from_dense(dense, 2),
        BCSCMatrix.from_dense(dense, 2),
        ELLMatrix.from_dense(dense),
        DCSRMatrix.from_dense(dense),
        tensor,
        MortonCOOTensor3D.from_coo(tensor),
        CSFTensor.from_coo(tensor),
    ]


def assert_typed(container) -> None:
    """Every array field is ``array('d')`` for values, ``array('q')``
    otherwise — typecodes checked directly, since
    ``array('q', [1]) == array('d', [1.0])``."""
    for name, value in vars(container).items():
        if isinstance(value, (int, tuple)):
            continue
        assert type(value) is array, (container, name, type(value))
        expected = "d" if name in VALUE_FIELDS else "q"
        assert value.typecode == expected, (container, name)


def test_every_registered_kind_is_covered():
    covered = {type(c) for c in _containers(DENSE)}
    assert set(CONTAINERS.values()) <= covered


@pytest.mark.parametrize("dense", [DENSE, EMPTY], ids=["filled", "empty"])
def test_constructed_fields_are_typed(dense):
    for container in _containers(dense):
        assert_typed(container)


def test_hicoo_fields_are_typed():
    hicoo = HiCOOTensor.from_coo(TENSOR, block_bits=1)
    assert_typed(hicoo)
    assert hicoo.block_coords()[0] == (0, 0, 0)


@pytest.mark.parametrize("dense", [DENSE, EMPTY], ids=["filled", "empty"])
def test_converted_fields_are_typed_on_every_tier(tier, dense):
    coo = COOMatrix.from_dense(dense)
    for dst in ("SCOO", "MCOO", "CSR", "CSC", "DIA", "BCSR", "BCSC"):
        out = convert(coo, dst, backend=tier, validate="full")
        assert_typed(out)
        assert vars(out) == vars(convert(coo, dst, backend="python"))
    for dst in ("SCOO3D", "MCOO3"):
        assert_typed(convert(TENSOR, dst, backend=tier))


def test_materialize_sets_the_typecode_by_role(tier):
    materialized = get_backend(tier).materialize(
        {"Adst": [], "rowptr": [0], "col2": np.empty(0, dtype=np.int64),
         "NNZ": np.int64(0)}
    )
    assert materialized["Adst"].typecode == "d"
    assert materialized["rowptr"].typecode == "q"
    assert materialized["col2"].typecode == "q"
    assert type(materialized["NNZ"]) is int


@pytest.mark.parametrize("name", ("numpy", "c"))
def test_native_inputs_share_the_buffer_read_only(name):
    backend = get_backend(_tier(name))
    for container in _containers(DENSE):
        env = container_to_env(container)
        staged = backend.native_inputs(env)
        for key, value in env.items():
            if not isinstance(value, array):
                continue
            view = staged[key]
            assert np.shares_memory(view, np.frombuffer(value, view.dtype))
            assert not view.flags.writeable
            if len(view):
                with pytest.raises(ValueError):
                    view[0] = 0


def test_numpy_inspector_reads_views_of_the_container():
    csr = CSRMatrix.from_dense(DENSE)
    for values, read in ((csr.col, ASARRAY_INT), (csr.val, ASARRAY_FLOAT)):
        view = read(values)
        assert np.shares_memory(view, np.frombuffer(values, view.dtype))
        assert not view.flags.writeable


def test_c_marshal_passes_the_container_buffers(monkeypatch):
    _tier("c")
    from repro.backends import c_backend

    passed = []
    ffi = c_backend._ffi()

    class Recording:
        def __getattr__(self, attr):
            return getattr(ffi, attr)

        def from_buffer(self, obj, *args, **kwargs):
            passed.append(obj)
            return ffi.from_buffer(obj, *args, **kwargs)

    coo = COOMatrix.from_dense(DENSE)
    convert(coo, "CSR", backend="c")  # compile outside the recording
    monkeypatch.setattr(c_backend, "_ffi", lambda: Recording())
    convert(coo, "CSR", backend="c")
    assert any(obj is coo.row for obj in passed)
    assert any(obj is coo.val for obj in passed)


def _recorded_argument_types(conversion, env) -> set:
    """The types the compiled inspector receives from ``run_native``."""
    seen = set()
    compiled = conversion.compile()

    def recorder(*args):
        seen.update(type(a) for a in args if not isinstance(a, int))
        return compiled(*args)

    probe = dataclasses.replace(conversion, _compiled=recorder)
    probe.run_native(**{p: env[p] for p in conversion.params})
    return seen


def test_python_tier_receives_lists():
    coo = COOMatrix.from_dense(DENSE)
    conversion = get_conversion("SCOO", "CSR", backend="python")
    assert _recorded_argument_types(conversion, container_to_env(coo)) \
        == {list}


@pytest.mark.parametrize("src", ("DIA", "ELL", "BCSR"))
def test_c_scalar_fallbacks_receive_lists(src):
    _tier("c")
    conversion = get_conversion(src, "COO", backend="c")
    assert get_backend("c").interprets(conversion.source)
    source = {"DIA": DIAMatrix.from_dense, "ELL": ELLMatrix.from_dense,
              "BCSR": lambda d: BCSRMatrix.from_dense(d, 2)}[src](DENSE)
    assert _recorded_argument_types(conversion, container_to_env(source)) \
        == {list}


def test_caller_sequences_stay_the_callers():
    row, col, val = [0, 1], [1, 0], [1.0, 2.0]
    coo = COOMatrix(2, 2, row, col, val)
    row[0] = 1
    col.append(5)
    val.clear()
    assert coo.row.tolist() == [0, 1] and coo.col.tolist() == [1, 0]
    assert coo.val.tolist() == [1.0, 2.0]
    source = array("q", [0, 2, 3])
    csr = CSRMatrix(2, 3, source, [0, 1, 2], [1.0, 2.0, 3.0])
    source[1] = 9
    assert csr.rowptr is not source and csr.rowptr.tolist() == [0, 2, 3]
    rows = np.array([0, 1], dtype=np.int64)
    coo = COOMatrix(2, 2, rows, rows, np.ones(2))
    rows[0] = 7
    assert coo.row.tolist() == [0, 1]
    assert_typed(coo)


class TestConstructionRejects:
    def test_non_integral_index(self):
        with pytest.raises(StructureError, match=r"row\[0\] = 0.5 is not"):
            COOMatrix(2, 2, [0.5, 1], [0, 1], [1.0, 2.0])

    def test_index_beyond_int64(self):
        with pytest.raises(BoundsError) as exc:
            CSRMatrix(2, 2, [0, 1, 2], [0, 2**63], [1.0, 2.0])
        assert exc.value.position == 1
        assert "col[1] = 9223372036854775808" in str(exc.value)
        with pytest.raises(BoundsError, match="rowidx"):
            DCSRMatrix(2, 2, [-(2**63) - 1], [0, 0], [], [])

    def test_non_numeric_value(self):
        with pytest.raises(StructureError, match=r"val\[1\] = 'x'"):
            COOMatrix(2, 2, [0, 1], [0, 1], [1.0, "x"])

    def test_float_numpy_index(self):
        with pytest.raises(StructureError, match=r"z\[0\]"):
            COOTensor3D((2, 2, 2), [0], [0], np.array([0.5]), [1.0])

    def test_typecode_comes_from_the_field(self):
        coo = COOMatrix(2, 2, [0], [1], [3])  # an integral value
        assert coo.val.typecode == "d" and coo.val.tolist() == [3.0]


def test_typed_fields_stay_json_serializable():
    coo = COOMatrix.from_dense(DENSE)
    doc = json.loads(json.dumps({"row": coo.row, "val": coo.val}))
    assert doc == {"row": coo.row.tolist(), "val": coo.val.tolist()}
