"""Response text: the native array formatter and the one encoder.

The formatter prints a double exactly as ``float.__repr__`` does or
declines it; every response the encoder writes equals
``json.dumps(payload).encode()``, with the formatter loaded and without.
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
from repro.serve import jsontext
from repro.serve.protocol import SCHEMA, ProtocolError, error_body
from repro.synthesis import synthesize
from tests.sweep import sweep
from tests.tiers import needs_c

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))

import check_json_floats  # noqa: E402

DECLINED = [1e-5, 5e-324, 2.0**53, 1e300, math.nan, math.inf, -math.inf]


@pytest.fixture
def stdlib_only(monkeypatch):
    """The formatter unloaded and the compiler lookup failing."""
    jsontext.load()  # let any in-flight build finish before unloading
    monkeypatch.setattr(jsontext, "_LIB", None)
    monkeypatch.setenv("CC", "/nonexistent/cc")
    assert jsontext.load() is None
    return None


@pytest.fixture
def native():
    lib = jsontext.load()
    if lib is None:
        pytest.skip("C toolchain (cffi + compiler) unavailable")
    return lib


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
