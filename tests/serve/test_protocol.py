"""The repro-serve/1 wire schema: parsing, validation, serialization."""

import pytest

from repro.runtime import COOMatrix
from repro.serve import (
    ProtocolError,
    parse_convert_request,
    parse_matrix,
    serialize_container,
)


def _matrix_doc():
    return {
        "rows": 3,
        "cols": 3,
        "row": [0, 0, 1, 2],
        "col": [0, 2, 1, 2],
        "val": [1.0, 2.0, 3.0, 4.0],
    }


class TestParseMatrix:
    def test_round_trip(self):
        coo = parse_matrix(_matrix_doc())
        assert isinstance(coo, COOMatrix)
        assert coo.nrows == 3 and coo.nnz == 4

    def test_missing_fields(self):
        with pytest.raises(ProtocolError, match="missing"):
            parse_matrix({"rows": 2, "cols": 2})

    def test_length_mismatch(self):
        doc = _matrix_doc()
        doc["val"] = doc["val"][:-1]
        with pytest.raises(ProtocolError, match="lengths differ"):
            parse_matrix(doc)

    def test_non_integer_shape(self):
        doc = _matrix_doc()
        doc["rows"] = "three"
        with pytest.raises(ProtocolError, match="integers"):
            parse_matrix(doc)


class TestParseConvertRequest:
    def test_defaults(self):
        req = parse_convert_request({"dst": "csr", "matrix": _matrix_doc()})
        assert req["dst"] == "CSR"
        assert req["validate"] == "inputs"
        assert req["optimize"] is True
        assert req["plan"] is False
        assert req["assume_sorted"] is None

    def test_unknown_fields_rejected(self):
        with pytest.raises(ProtocolError, match="unknown request fields"):
            parse_convert_request(
                {"dst": "CSR", "matrix": _matrix_doc(), "bakend": "numpy"}
            )

    def test_missing_dst(self):
        with pytest.raises(ProtocolError, match="dst"):
            parse_convert_request({"matrix": _matrix_doc()})

    def test_bad_validate_level(self):
        with pytest.raises(ProtocolError, match="validate"):
            parse_convert_request(
                {"dst": "CSR", "matrix": _matrix_doc(), "validate": "maybe"}
            )

    @pytest.mark.parametrize("field,value", [
        ("optimize", "false"),
        ("binary_search", 1),
        ("plan", "0"),
    ])
    def test_non_boolean_flag_rejected(self, field, value):
        # bool("false") and bool("0") are True: a string must not read
        # as its truth value.
        with pytest.raises(ProtocolError, match=f"{field} must be a boolean"):
            parse_convert_request(
                {"dst": "CSR", "matrix": _matrix_doc(), field: value}
            )

    @pytest.mark.parametrize("option", [
        {"optimize": False},
        {"binary_search": True},
    ])
    def test_plan_refuses_options_it_would_drop(self, option):
        [(name, value)] = option.items()
        with pytest.raises(ProtocolError, match=f"plan: true .*{name}"):
            parse_convert_request(
                {"dst": "DIA", "matrix": _matrix_doc(), "plan": True,
                 **option}
            )
        request = parse_convert_request(
            {"dst": "DIA", "matrix": _matrix_doc(), **option}
        )
        assert request[name] is value


class TestSerializeContainer:
    def test_csr_arrays_and_shape(self):
        from repro import convert

        coo = parse_matrix(_matrix_doc())
        csr = convert(coo, "CSR")
        doc = serialize_container(csr, "CSR")
        assert doc["arrays"]["rowptr"] == [0, 2, 3, 4]
        assert doc["arrays"]["col2"] == [0, 2, 1, 2]
        assert doc["shape"]["NR"] == 3
        assert doc["format"] == "CSR"

    def test_numpy_arrays_become_lists(self):
        from repro import convert

        coo = parse_matrix(_matrix_doc())
        csr = convert(coo, "CSR", backend="numpy")
        doc = serialize_container(csr, "CSR")
        assert type(doc["arrays"]["rowptr"]) is list
        import json

        json.dumps(doc)  # the whole document must be JSON-compatible
