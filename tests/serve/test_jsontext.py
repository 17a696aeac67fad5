"""Wire text: the native formatter and scanners, the encoder and decoder.

The formatter prints a double exactly as ``float.__repr__`` does or
declines it; every response the encoder writes equals
``json.dumps(payload).encode()``, with the formatter loaded and without.
The scanners read a literal exactly as the stdlib path stores it or
decline it; every body the decoder reads gives the request, or the
error, that ``json.loads`` gives.
"""

import json
import math
import random
import sys
from array import array
from pathlib import Path

import numpy as np
import pytest

from repro.backends import get_backend
from repro.errors import ValidationError
from repro.serve import jsontext
from repro.serve.protocol import (
    SCHEMA,
    ProtocolError,
    error_body,
    parse_convert_request,
)
from repro.synthesis import synthesize
from tests.sweep import sweep
from tests.tiers import needs_c

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import check_json_floats  # noqa: E402

DECLINED = [1e-5, 5e-324, 2.0**53, 1e300, math.nan, math.inf, -math.inf]


@needs_c
class TestFormatterAgainstRepr:
    def test_seeded_draws_match_or_decline(self):
        # The CI tool's generators at tier-1 size: random bit patterns,
        # log-uniform decades, integers, round(x, k) decimals, and every
        # power of two and ten in range with its neighbours.
        total = check_json_floats.run(200_000, seed=0)
        assert total["values"] >= 200_000
        assert total["mismatches"] == []
        assert total["unexplained"] == []
        # Random bit patterns are mostly out of range; the rest print.
        assert 0 < total["declined"] < total["values"] / 2

    def test_range_edges_and_neighbours(self):
        values = check_json_floats.edges().tolist()
        values += [2.0**-14, math.nextafter(2.0**-14, 0.0), 1e-4,
                   math.nextafter(2.0**53, 0.0), 2.0**53 - 1.0]
        texts = check_json_floats.native_texts(array("d", values))
        for x, text in zip(values, texts):
            if check_json_floats.accepted(x):
                assert text == repr(x) or check_json_floats.must_decline(x)
            else:
                assert text is None, (x, text)
        # Just outside the range on either side declines.
        assert check_json_floats.native_texts(
            array("d", [math.nextafter(2.0**-14, 0.0), 2.0**53])
        ) == [None, None]

    def test_exact_values(self):
        values = [0.0, -0.0, 0.1, 0.5, 1.0, 2.5, 1e-4, 123.456, 1 / 3,
                  6.103515625e-05, 9007199254740991.0, 1e15, 2.0**53 - 2.0,
                  float(2**52), -float(2**52 + 1)]
        values += [round(k / 7, d) for k in range(1, 40) for d in range(8)]
        texts = check_json_floats.native_texts(array("d", values))
        assert texts == [repr(x) for x in values]

    def test_decimal_exponent_estimate_is_exact(self):
        # K = floor(-e * log10 2) + 1 over the accepted binary exponents,
        # and the overflow bound the formatter's comment proves: even one
        # decade too large, (4m + 2) * 10**K stays below 2**128.
        for e in range(-66, 1):
            k = ((-e * 78913) >> 18) + 1
            assert 10 ** (k - 1) <= 2**-e < 10**k
            assert k <= 20  # the formatter's table of powers ends there
            assert (2**55) * 10 ** (k + 1) < 2**128


class TestArrayText:
    @pytest.mark.parametrize("where", ["alone", "first", "middle", "last"])
    def test_declined_values_inside_an_array(self, native, where):
        for bad in DECLINED:
            values = {
                "alone": [bad],
                "first": [bad, 1.5, 0.25],
                "middle": [1.5, bad, 0.25, 2.0],
                "last": [1.5, 0.25, bad],
            }[where]
            arr = array("d", values)
            assert bytes(jsontext.array_text(arr, native)) == (
                json.dumps(values).encode()
            ), (where, bad)

    def test_int64_extremes_and_empty_arrays(self, native):
        for lib in (native, None):
            ints = array("q", [-(2**63), 2**63 - 1, 0, -1, 10**18, 7])
            assert bytes(jsontext.array_text(ints, lib)) == (
                json.dumps(ints.tolist()).encode()
            )
            for typecode in "qd":
                assert bytes(jsontext.array_text(array(typecode), lib)) == (
                    b"[]"
                )

    def test_stdlib_path_without_a_compiler(self, stdlib_only):
        arr = array("d", [0.1, 1e-5, 2.0**60])
        assert jsontext.array_text(arr, jsontext.formatter()) == (
            json.dumps(arr.tolist()).encode()
        )


#: Dense inputs whose values mix doubles the formatter prints with ones
#: it declines, so native prefixes meet stdlib tails inside the arrays.
DENSE_2D = [
    [1 / 3, 0.0, 1e-5, 0.0, 0.0, 0.0],
    [0.0, 2.0**53, 0.0, 0.0, 0.1, 0.0],
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [123.456, 0.0, 0.0, -2.5, 0.0, 1e300],
    [0.0, 0.0, 5e-324, 0.0, 6.02e23, 0.0],
]
DENSE_3D = [
    [[1 / 3, 0.0, 0.0, 1e-5], [0.0, 0.0, 0.1, 0.0], [0.0, 0.0, 0.0, 0.0]],
    [[0.0, 2.0**53, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [-2.5, 0.0, 0.0, 7.0]],
    [[0.0, 0.0, 0.0, 0.0], [1e300, 0.0, 0.0, 0.0], [0.0, 0.0, 123.456, 0.0]],
]


def _sweep_payloads():
    """(label, payload) of a success response for the result of every
    conversion in the sweep, its arrays typed as the daemon holds them."""
    backend = get_backend("python")
    for label, src, dst, optimize, bsearch in sweep():
        conversion = synthesize(
            src, dst, optimize=optimize, binary_search=bsearch,
            backend="python",
        )
        env = src.levels.assemble(
            DENSE_2D if src.levels.rank == 2 else DENSE_3D
        )
        outputs = backend.materialize(
            conversion(**{p: env[p] for p in conversion.params})
        )
        arrays = {n: v for n, v in outputs.items() if isinstance(v, array)}
        shape = {n: v for n, v in outputs.items() if n not in arrays}
        yield label, {
            "ok": True,
            "schema": SCHEMA,
            "format": dst.name,
            "result": {"arrays": arrays, "shape": shape, "repr": label,
                       "format": dst.name},
            "meta": {"backend": "python", "validate": "inputs",
                     "seconds": 0.000123, "trace_id": "sweep-1"},
            "trace_id": "sweep-1",
        }


@pytest.mark.parametrize("formatter", ["native", "stdlib_only"])
def test_sweep_responses_are_json_dumps_bytes(formatter, request):
    lib = request.getfixturevalue(formatter)
    assert (lib is None) == (formatter == "stdlib_only")
    checked = 0
    for label, payload in _sweep_payloads():
        result = payload["result"]
        listed = dict(payload, result=dict(result, arrays={
            name: values.tolist() for name, values in result["arrays"].items()
        }))
        assert jsontext.encode(payload, lib) == json.dumps(listed).encode(), (
            label
        )
        checked += 1
    assert checked > 300


def test_error_bodies_are_json_dumps_bytes(native):
    body = error_body(ProtocolError("bad \u00e9 \"x\""), trace_id="t-1")
    for lib in (native, None):
        assert jsontext.encode(body, lib) == json.dumps(body).encode()


def _random_payload(rng, nrng, depth=0):
    """A seeded JSON document: nested dicts (string and non-string keys)
    and lists, typed arrays of every kind of double and int64, and the
    scalars json.dumps special-cases."""
    roll = rng.random()
    if depth < 3 and roll < 0.35:
        keys = ["a", "bé", 'q"x', 1, 2.5, True, None, "k3"]
        return {rng.choice(keys): _random_payload(rng, nrng, depth + 1)
                for _ in range(rng.randint(0, 4))}
    if depth < 3 and roll < 0.45:
        return [_random_payload(rng, nrng, depth + 1)
                for _ in range(rng.randint(0, 3))]
    if roll < 0.75:
        n = rng.choice([0, 1, 2, 5, 50])
        draw = rng.random()
        if draw < 0.3:
            bits = nrng.integers(0, 2**64, n, dtype="uint64")
            return array("d", bits.view("float64").tobytes())
        if draw < 0.6:
            values = nrng.uniform(0, 100, n).round(rng.randint(0, 6))
            return array("d", values.tobytes())
        ints = nrng.integers(-(2**63), 2**63 - 1, n, dtype="int64")
        return array("q", ints.tobytes())
    return rng.choice([1, -2, 0.1, math.nan, -math.inf, "s☃", None,
                       True, 1e-7, 2**70])


@pytest.mark.parametrize("formatter", ["native", "stdlib_only"])
def test_random_payloads_are_json_dumps_bytes(formatter, request):
    lib = request.getfixturevalue(formatter)
    rng, nrng = random.Random(0), np.random.default_rng(0)
    for _ in range(2000):
        payload = _random_payload(rng, nrng)
        assert jsontext.encode(payload, lib) == json.dumps(payload).encode()


# -- the request side ----------------------------------------------------
@needs_c
class TestScannerAgainstStdlib:
    def test_seeded_literals_match_or_decline(self):
        # The CI tool's parse direction at tier-1 size: the JSON text of
        # the format generators' doubles and random 1-25-digit decimals.
        total = check_json_floats.run_literals(200_000, seed=0)
        assert total["values"] == 200_000
        assert total["mismatches"] == []
        assert total["unexplained"] == []
        # The > 19-digit decimals and the NaN/inf/subnormal bit patterns.
        assert 0 < total["declined"] < total["values"] / 4

    def test_edges_match_or_decline_by_the_rules(self):
        tokens = check_json_floats.literal_edges()
        values = check_json_floats.native_values(tokens)
        for token, value in zip(tokens, values):
            if value is None:
                assert check_json_floats.literal_must_decline(token), token
            else:
                assert value.hex() == check_json_floats.stored(token).hex(), (
                    token
                )
        read = dict(zip(tokens, values))
        # Short dyadic values take the exact branch; -0 is the int 0.
        assert read["0.5"] == 0.5 and read["1.25"] == 1.25
        assert math.copysign(1, read["-0"]) == 1.0
        assert math.copysign(1, read["-0.0"]) == -1.0
        assert read["9007199254740993"] == 2.0**53  # the tie, to even
        for token in ("NaN", "Infinity", "1e400", "1e-400", "5e-324",
                      "18446744073709551615", "01", "1.", "+1", "1e"):
            assert read[token] is None, token

    def test_table_entries(self):
        from fractions import Fraction

        for q in range(jsontext.Q_MIN, jsontext.Q_MAX + 1):
            x, shift = jsontext.pow5(q)
            scaled = Fraction(10) ** q * Fraction(2) ** -shift
            if 0 <= q <= jsontext.Q_EXACT:
                assert scaled == x < 2**128, q
            else:
                assert x - 1 < scaled < x and 2**127 < x < 2**128, q

    def test_int64_literals(self):
        top, bottom = 2**63 - 1, -(2**63)
        scan = check_json_floats.scan
        assert scan(f"[0, -0,{top} ,\n{bottom}\t]", "row") == (
            array("q", [0, 0, top, bottom])
        )
        assert scan("[ ]", "row") == scan("[]", "row") == array("q")
        for bad in (f"[{top + 1}]", f"[{bottom - 1}]", "[1.0]", "[1e3]",
                    "[true]", "[01]", "[1,]", "[,1]", "[1 2]", "[-]",
                    '["1"]', "[[1]]", "[1", "[1\f]"):
            assert scan(bad, "row") is None, bad

    def test_random_arrays_read_as_json_loads_reads_them(self):
        # Strings over the number alphabet: whatever a scanner reads,
        # json.loads reads too, to the same values bit for bit.
        rng = random.Random(0)
        alphabet = "0123456789" * 3 + "-+.eE ,\t\n" + "0" * 3
        accepted = {"row": 0, "val": 0}
        for _ in range(20000):
            n = rng.randint(0, 12)
            text = "[" + "".join(rng.choices(alphabet, k=n)) + "]"
            try:
                want = json.loads(text)
            except ValueError:
                want = None
            for field in accepted:
                got = check_json_floats.scan(text, field)
                if got is None:
                    continue
                accepted[field] += 1
                assert want is not None, text
                assert got.tobytes() == array(got.typecode, want).tobytes(), (
                    text
                )
        assert min(accepted.values()) > 5000, accepted


def _outcome(decode, body):
    """A request's parse, or its error, in comparable form."""
    try:
        request = parse_convert_request(decode(body))
    except (ValueError, RecursionError, ValidationError) as exc:
        return "error", type(exc).__name__, str(exc)
    matrix = request.pop("matrix")
    fields = {
        name: (value.typecode, value.tobytes())
        if isinstance(value, array) else value
        for name, value in vars(matrix).items()
    }
    return "ok", fields, request


def _request_bodies(seed: int, count: int):
    """Seeded ``/convert`` bodies: layouts, key orders, duplicates,
    strings, and every kind of literal a client may put in the arrays."""
    rng = random.Random(seed)
    big, small = 2**63, -(2**63)
    rows_pool = [0, 1, 2, -0, big - 1, big, small, small - 1, True, 1.0,
                 None, "1"]
    vals_pool = [1.5, -0.0, 0, -0, 2, 1e-300, 5e-324, 2.0**60, big, small,
                 10**25, math.nan, math.inf, -math.inf, True, 0.1, 1e400]
    literal_vals = ["1e400", "1e-400", "12345678901234567890.5", "-0",
                    "-0.0", "0.30000000000000004", "1E+2", "2.5e-3",
                    "1.00000000000000000000000001"]
    for _ in range(count):
        nnz = rng.choice([0, 1, 3, 8])
        row = [rng.randrange(6) for _ in range(nnz)]
        col = [rng.randrange(6) for _ in range(nnz)]
        val = [round(rng.uniform(-3, 3), rng.randrange(1, 17))
               for _ in range(nnz)]
        if nnz and rng.random() < 0.3:
            row[rng.randrange(nnz)] = rng.choice(rows_pool)
        if nnz and rng.random() < 0.3:
            val[rng.randrange(nnz)] = rng.choice(vals_pool)
        if nnz and rng.random() < 0.1:
            col.pop()  # a length mismatch
        matrix = {"rows": 6, "cols": 6, "row": row, "col": col, "val": val}
        doc = {"dst": rng.choice(["CSR", "csc", "CSR", "DÏA", ""]),
               "matrix": matrix}
        if rng.random() < 0.3:
            doc["trace_id"] = rng.choice(["t-1", "a\"b", "x\\y", "é"])
        if rng.random() < 0.2:
            doc["validate"] = rng.choice(["full", "off", 3])
        if rng.random() < 0.1:
            doc["extra"] = {"nested": [1, {"a": None}]}
        items = list(doc.items())
        rng.shuffle(items)
        text = json.dumps(
            dict(items),
            ensure_ascii=rng.random() < 0.8,
            indent=rng.choice([None, None, 0, 2, "\t"]),
            separators=rng.choice([None, (",", ":"), (" , ", " : ")]),
        )
        if rng.random() < 0.2:
            # The raw literal a client may write that json.dumps never
            # writes, in place of the first value.
            literal = rng.choice(literal_vals)
            text = text.replace('"val": [', f'"val": [{literal}, ', 1)
        if rng.random() < 0.15:
            # "matrix" twice: the last one counts, as in json.loads.
            text = text[:-1] + ', "matrix": {"rows": 1, "cols": 1, ' \
                '"row": [0], "col": [0], "val": [4.5]}}'
        body = text.encode()
        yield body
        if rng.random() < 0.3:
            yield body[: rng.randrange(len(body))]  # truncated


@needs_c
def test_decode_corpus_matches_stdlib(native):
    # Every body gives the same request, typed arrays and all, or the
    # same error, through the scanners and through json.loads.
    def stdlib(body):
        return json.loads(body.decode("utf-8"))

    def scanned(body):
        return jsontext.decode(body, native)

    corpus = list(_request_bodies(0, 400))
    corpus += [
        b"", b" ", b"[]", b"null", b'"x"', b"{", b"{}", b' {"dst": "CSR"} ',
        b'{"dst": "CSR", "matrix": {}}', b'{"dst": "CSR",}',
        b'{"dst": "CSR"} {}', b'{"dst" "CSR"}', b"{'dst': 1}",
        b'{"dst": "CSR", "matrix": {"rows": 1, "cols": 1, "row": [0],'
        b' "col": [0], "val": [NaN], "row": [0]}}',
        b"[" * 5000, b'{"matrix": ' + b"[" * 5000 + b"]" * 5000 + b"}",
        b'{"dst": "CSR", "matrix": {"rows": 1, "cols": 1, "row": '
        + b"[" * 5000 + b"]" * 5000 + b', "col": [], "val": []}}',
    ]
    kinds = set()
    for body in corpus:
        want = _outcome(stdlib, body)
        assert _outcome(scanned, body) == want, body[:200]
        kinds.add(want[0] if want[0] == "ok" else want[1])
    assert {"ok", "JSONDecodeError", "ProtocolError", "StructureError",
            "BoundsError", "RecursionError"} <= kinds, kinds


@needs_c
def test_decode_types_the_arrays_it_reads(native):
    body = (b'{"dst": "CSR", "matrix": {"rows": 2, "cols": 2, '
            b'"row": [0, 1], "col": [1, 0], "val": [2, -0.0]}}')
    assert jsontext.decode_path(body, native) == "native"
    matrix = jsontext.decode(body, native)["matrix"]
    assert matrix["row"] == array("q", [0, 1])
    assert matrix["row"].typecode == matrix["col"].typecode == "q"
    assert matrix["val"].typecode == "d"
    assert [math.copysign(1, v) for v in matrix["val"]] == [1.0, -1.0]
    # A declined array is the stdlib's list; a non-ASCII body is read by
    # json.loads whole.
    declined = body.replace(b"[2, -0.0]", b"[2, NaN]")
    assert isinstance(jsontext.decode(declined, native)["matrix"]["val"],
                      list)
    accented = body.replace(b'"CSR"', '"ÇSR"'.encode())
    assert jsontext.decode_path(accented, native) == "stdlib"
    assert jsontext.decode(accented, native) == json.loads(accented)


def test_stdlib_decode_without_a_compiler(stdlib_only):
    body = b'{"dst": "CSR", "matrix": {"row": [0], "val": [1.5]}}'
    assert jsontext.decode_path(body, jsontext.formatter()) == "stdlib"
    assert jsontext.decode(body, jsontext.formatter()) == json.loads(body)
