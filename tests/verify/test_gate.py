"""The runtime validation gate: malformed inputs must raise, not corrupt.

Regression tests for the silent-corruption issue: duplicate-coordinate
and out-of-bounds COO previously flowed straight into synthesized
inspectors (yielding corrupt CSR or a bare IndexError), and unsorted COO
silently fell back to the sorting descriptor even when the caller had
promised sorted input.
"""

import pytest

from repro import (
    BoundsError,
    COOMatrix,
    DenseMismatchError,
    DuplicateCoordinateError,
    UnsortedInputError,
    ValidationError,
    convert,
    dense_equal,
)
from repro.planner import convert_via_plan
from repro.runtime import COOTensor3D, CSRMatrix
from repro.verify import check_input, check_output, normalize_level

BACKENDS = ("python", "numpy")


class TestLevels:
    def test_normalize(self):
        assert normalize_level(None) == "off"
        assert normalize_level(False) == "off"
        assert normalize_level("inputs") == "inputs"
        assert normalize_level("full") == "full"

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="validate must be one of"):
            normalize_level("paranoid")
        with pytest.raises(ValueError):
            convert(COOMatrix(1, 1, [0], [0], [1.0]), "CSR",
                    validate="everything")


@pytest.mark.parametrize("backend", BACKENDS)
class TestIssueRepros:
    """The three malformed-input families from the issue report."""

    def test_duplicate_coordinates_raise_naming_coordinate(self, backend):
        dup = COOMatrix(3, 3, [0, 0, 1], [1, 1, 2], [1.0, 2.0, 3.0])
        with pytest.raises(DuplicateCoordinateError) as exc:
            convert(dup, "CSR", backend=backend)
        assert "(0, 1)" in str(exc.value)
        assert exc.value.coordinate == (0, 1)
        assert exc.value.positions == (0, 1)

    def test_out_of_bounds_raises_naming_coordinate(self, backend):
        oob = COOMatrix(2, 2, [0, 5], [0, 1], [1.0, 2.0])
        with pytest.raises(BoundsError) as exc:
            convert(oob, "CSR", backend=backend)
        assert "(5, 1)" in str(exc.value)
        assert exc.value.coordinate == (5, 1)

    def test_negative_column_raises(self, backend):
        oob = COOMatrix(2, 2, [0, 1], [0, -3], [1.0, 2.0])
        with pytest.raises(BoundsError):
            convert(oob, "CSC", backend=backend)

    def test_unsorted_with_assume_sorted_raises_with_remedy(self, backend):
        uns = COOMatrix(3, 3, [2, 0, 1], [0, 2, 1], [1.0, 2.0, 3.0])
        with pytest.raises(UnsortedInputError) as exc:
            convert(uns, "CSR", backend=backend)
        message = str(exc.value)
        assert "assume_sorted=False" in message
        assert exc.value.position == 1

    def test_remedy_converts_correctly(self, backend):
        uns = COOMatrix(3, 3, [2, 0, 1], [0, 2, 1], [1.0, 2.0, 3.0])
        out = convert(uns, "CSR", backend=backend, assume_sorted=False)
        out.check()
        assert dense_equal(out.to_dense(), uns.to_dense())

    def test_negative_shape_is_rejected_at_the_default_level(self, backend):
        from repro.errors import ShapeError

        with pytest.raises(ShapeError, match="nrows must not be negative"):
            convert(COOMatrix(-5, 3, [], [], []), "CSR", backend=backend)
        tensor = COOTensor3D((2, -3, 2), [], [], [], [])
        with pytest.raises(ShapeError, match=r"dims\[1\]"):
            convert(tensor, "MCOO3", backend=backend)

    def test_validate_off_preserves_legacy_fallback(self, backend):
        uns = COOMatrix(3, 3, [2, 0, 1], [0, 2, 1], [1.0, 2.0, 3.0])
        out = convert(uns, "CSR", backend=backend, validate="off")
        assert dense_equal(out.to_dense(), uns.to_dense())


class TestGateFunctions:
    def test_check_input_off_is_noop(self):
        dup = COOMatrix(3, 3, [0, 0], [1, 1], [1.0, 2.0])
        check_input(dup, level="off")  # must not raise

    def test_check_input_catches_duplicates(self):
        dup = COOMatrix(3, 3, [0, 0], [1, 1], [1.0, 2.0])
        with pytest.raises(DuplicateCoordinateError):
            check_input(dup, level="inputs")

    def test_unsorted_allowed_when_not_assumed(self):
        uns = COOMatrix(3, 3, [2, 0], [0, 2], [1.0, 2.0])
        check_input(uns, level="inputs", assume_sorted=False)

    def test_check_output_full_catches_dense_mismatch(self):
        src = COOMatrix(2, 2, [0, 1], [0, 1], [1.0, 2.0])
        wrong = COOMatrix(2, 2, [0, 1], [0, 1], [1.0, 9.0])
        with pytest.raises(ValidationError):
            check_output(wrong, src, level="full")
        check_output(wrong, src, level="inputs")  # not checked below full

    def test_validation_error_is_value_error(self):
        assert issubclass(ValidationError, ValueError)
        assert issubclass(UnsortedInputError, ValidationError)


class TestPlannerGate:
    def test_plan_path_rejects_unsorted(self):
        uns = COOMatrix(3, 3, [2, 0, 1], [0, 2, 1], [1.0, 2.0, 3.0])
        with pytest.raises(UnsortedInputError):
            convert_via_plan(uns, "DIA")

    def test_plan_path_full_validation(self):
        uns = COOMatrix(3, 3, [2, 0, 1], [0, 2, 1], [1.0, 2.0, 3.0])
        out = convert_via_plan(uns, "DIA", assume_sorted=False,
                               validate="full")
        assert dense_equal(out.to_dense(), uns.to_dense())

    def test_plan_path_rejects_duplicates(self):
        dup = COOMatrix(3, 3, [0, 0, 1], [1, 1, 2], [1.0, 2.0, 3.0])
        with pytest.raises(DuplicateCoordinateError):
            convert_via_plan(dup, "CSR")


class TestTensorGate:
    def test_unsorted_tensor_raises(self):
        t = COOTensor3D((2, 2, 2), [1, 0], [0, 0], [0, 0], [1.0, 2.0])
        with pytest.raises(UnsortedInputError):
            convert(t, "MCOO3")

    def test_duplicate_tensor_coordinate_raises(self):
        t = COOTensor3D((2, 2, 2), [0, 0], [1, 1], [1, 1], [1.0, 2.0])
        with pytest.raises(DuplicateCoordinateError) as exc:
            convert(t, "MCOO3")
        assert exc.value.coordinate == (0, 1, 1)

    def test_out_of_bounds_tensor_raises(self):
        t = COOTensor3D((2, 2, 2), [0, 3], [0, 0], [0, 0], [1.0, 2.0])
        with pytest.raises(BoundsError):
            convert(t, "MCOO3")

    def test_unsorted_tensor_remedy(self):
        t = COOTensor3D((2, 2, 2), [1, 0], [0, 0], [0, 0], [1.0, 2.0])
        out = convert(t, "MCOO3", assume_sorted=False)
        assert out.to_dict() == t.to_dict()


class TestContentOracle:
    """``validate="full"`` compares stored entries, for every rank."""

    def test_full_validation_never_densifies(self, monkeypatch):
        from repro.formats import levels

        def refuse(shape):
            raise AssertionError(f"dense image of shape {shape}")

        monkeypatch.setattr(levels, "_zeros", refuse)
        big = COOMatrix(10**6, 10**6, [0, 5], [1, 7], [1.0, 2.0])
        out = convert(big, "CSR", validate="full")
        assert out.to_dict() == {(0, 1): 1.0, (5, 7): 2.0}

    def test_tensor_shape_must_match_the_reference(self):
        reference = COOTensor3D((2, 2, 2), [0, 1], [1, 0], [0, 1],
                                [1.0, 2.0])
        wide = COOTensor3D((5, 7, 9), [0, 1], [1, 0], [0, 1], [1.0, 2.0])
        with pytest.raises(DenseMismatchError, match=r"shape \(5, 7, 9\)"):
            wide.check_against_dense(reference)
        with pytest.raises(DenseMismatchError):
            check_output(wide, reference, level="full")
        check_output(reference, reference, level="full")

    def test_reports_the_row_major_first_difference(self):
        from repro.formats.levels import Cells

        coo = COOMatrix(4, 4, [0, 3], [2, 3], [1.0, 2.0])
        for reference in (
            {(3, 3): 5.0, (0, 2): 7.0},
            [[0.0, 0.0, 7.0, 0.0], [0.0] * 4, [0.0] * 4,
             [0.0, 0.0, 0.0, 5.0]],
            Cells.from_dense([[0.0, 0.0, 7.0, 0.0], [0.0] * 4, [0.0] * 4,
                              [0.0, 0.0, 0.0, 5.0]], 2),
            COOMatrix(4, 4, [3, 0], [3, 2], [5.0, 7.0]),
        ):
            with pytest.raises(DenseMismatchError) as exc:
                coo.check_against_dense(reference)
            assert exc.value.coordinate == (0, 2)
            assert (exc.value.actual, exc.value.expected) == (1.0, 7.0)


class TestFullGateOnGoodInputs:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("dst", ["CSR", "CSC", "DIA", "MCOO", "BCSR"])
    def test_full_validation_accepts_correct_output(self, backend, dst):
        dense = [
            [1.0, 0.0, 2.0, 0.0],
            [0.0, 0.0, 0.0, 0.0],
            [3.0, 4.0, 0.0, 5.0],
            [0.0, 6.0, 0.0, 7.0],
        ]
        coo = COOMatrix.from_dense(dense)
        out = convert(coo, dst, backend=backend, validate="full")
        assert dense_equal(out.to_dense(), dense)


class TestConvertMetrics:
    def test_end_to_end_histogram_next_to_inspector_one(self):
        from repro.obs import METRICS

        def series(name):
            hist = METRICS.histogram(name)
            for sample in hist._samples():
                if sample["labels"] == {"backend": "python"}:
                    return sample["value"]["count"], sample["value"]["sum"]
            return 0, 0.0

        coo = COOMatrix.from_dense([[1.0, 0.0], [0.0, 2.0]])
        convert(coo, "CSR", backend="python")  # warm the synthesis cache
        e2e0, inspector0 = series("repro_convert_seconds"), series(
            "repro_conversion_seconds"
        )
        convert(coo, "CSR", backend="python")
        e2e1, inspector1 = series("repro_convert_seconds"), series(
            "repro_conversion_seconds"
        )
        assert e2e1[0] == e2e0[0] + 1
        assert inspector1[0] == inspector0[0] + 1
        # The whole call contains the inspector run it times.
        assert e2e1[1] - e2e0[1] >= inspector1[1] - inspector0[1]


@pytest.fixture()
def reversing_numpy_tier(monkeypatch):
    """The numpy tier returning every output array reversed: the same
    entries, out of the order the destination format promises."""
    pytest.importorskip("numpy")
    from repro.backends import get_backend

    numpy_tier = get_backend("numpy")
    real = numpy_tier.materialize

    def reversing(outputs):
        return {
            name: value if isinstance(value, (int, float)) else value[::-1]
            for name, value in real(outputs).items()
        }

    monkeypatch.setattr(numpy_tier, "materialize", reversing)


class TestDestinationInvariants:
    """A result is checked as the format it was converted into, not as
    the format its class declares."""

    def test_unsorted_scoo_result_rejected(self, reversing_numpy_tier):
        csr = CSRMatrix(3, 3, [0, 1, 2, 3], [0, 1, 2], [1.0, 2.0, 3.0])
        with pytest.raises(UnsortedInputError):
            convert(csr, "SCOO", backend="numpy", validate="full")
        # The same container is a well-formed COO result.
        out = convert(csr, "COO", backend="numpy", validate="full")
        assert out.to_dict() == csr.to_dict()

    def test_unsorted_scoo3d_result_rejected(self, reversing_numpy_tier):
        t = COOTensor3D((2, 2, 2), [1, 0], [0, 0], [0, 1], [1.0, 2.0])
        with pytest.raises(UnsortedInputError):
            convert(t, "SCOO3D", backend="numpy", assume_sorted=False,
                    validate="full")

    def test_check_output_names_the_destination(self):
        src = COOMatrix(2, 2, [0, 1], [0, 1], [1.0, 2.0])
        backwards = COOMatrix(2, 2, [1, 0], [1, 0], [2.0, 1.0])
        check_output(backwards, src, level="full")
        check_output(backwards, src, level="full", format_name="COO")
        with pytest.raises(UnsortedInputError):
            check_output(backwards, src, level="full", format_name="SCOO")

