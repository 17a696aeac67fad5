#!/usr/bin/env python
"""Check the daemon's native float64 JSON text against the stdlib, both ways.

:mod:`repro.serve.jsontext` writes result arrays through a C formatter
that either prints a double exactly as ``float.__repr__`` does or
declines it, and reads request arrays through a C scanner that either
reads a number literal exactly as the stdlib does or declines it.

Format direction: seeded doubles from the generators below, each run
through the formatter on its own; a mismatch is any text other than
``repr``.  A declined value is never a mismatch (the daemon hands it to
``json.dumps``); one inside the accepted range must be a value the
formatter's rules decline (see :func:`must_decline`), else it counts as
an unexplained decline.

Parse direction: the JSON text of seeded doubles (``repr``, or ``NaN``
and ``Infinity``) and random decimal literals of 1-25 digits with
exponents -30..30, each scanned alone; a mismatch is a double whose bits
differ from what the stdlib path stores (``float(text)``, or
``float(int(text))`` for an integer literal).  A declined literal is
never a mismatch (the daemon hands the array to the stdlib); one the
scanner's rules accept (see :func:`literal_must_decline`) counts as an
unexplained decline.

The tier-1 suite runs the same generators at 2x10^5 values each way; CI
runs this script at 10^7.

Usage: ``python tools/check_json_floats.py [--count N] [--seed S]``.
Prints the declined shares; exits 1 on any mismatch or unexplained
decline in either direction, and 2 when the library cannot be built (no
cffi or no C compiler).
"""

from __future__ import annotations

import argparse
import json
import math
import random
import re
import sys
from array import array
from decimal import Decimal
from fractions import Fraction

import numpy as np

#: The formatter's accepted magnitudes: normal doubles in [LOW, HIGH).
LOW = 2.0**-14
HIGH = 2.0**53


def accepted(x: float) -> bool:
    """Whether ``x`` lies in the range the formatter decides exactly."""
    return x == 0.0 or LOW <= abs(x) < HIGH


def must_decline(x: float) -> bool:
    """Whether an accepted ``x`` is one the formatter must decline.

    Two cases, checked here in exact rational arithmetic: ``x`` lies
    exactly halfway between ``repr``'s digits and their neighbour in the
    last place, and both read back as ``x``; or a rounding boundary
    (halfway to an adjacent double) is itself a decimal no longer than
    ``repr``'s.
    """
    text = repr(x)
    exact = Fraction(x)
    shown = Fraction(Decimal(text))
    ulp = Fraction(10) ** Decimal(text).as_tuple().exponent
    for other in (shown - ulp, shown + ulp):
        if float(other) == x and abs(other - exact) == abs(shown - exact):
            return True
    for side in (-math.inf, math.inf):
        boundary = (exact + Fraction(math.nextafter(x, side))) / 2
        if (boundary / ulp).denominator == 1:
            return True
    return False


def _random_bits(rng, n):
    """Uniform 64-bit patterns: every class of double, mostly out of range."""
    return rng.integers(0, 2**64, size=n, dtype=np.uint64).view(np.float64)


def _log_uniform(rng, n):
    """Log-uniform magnitudes per decade across the accepted range."""
    decades = np.arange(math.floor(math.log10(LOW)), 16)
    exps = rng.choice(decades, size=n) + rng.random(n)
    vals = 10.0 ** exps
    vals = vals[(vals >= LOW) & (vals < HIGH)]
    return vals * rng.choice([-1.0, 1.0], size=len(vals))


def _integers(rng, n):
    """Integers below 1e5, and up to 2**53."""
    small = rng.integers(0, 10**5, size=n // 2).astype(np.float64)
    large = rng.integers(0, 2**53, size=n - n // 2, dtype=np.int64)
    return np.concatenate([small, large.astype(np.float64)])


def _decimals(rng, n):
    """``round(x, k)`` decimals: the values people type and store."""
    x = rng.random(n) * 10.0 ** rng.integers(0, 6, size=n)
    digits = rng.integers(0, 8, size=n)
    return np.array([round(v, int(k)) for v, k in zip(x, digits)])


def edges() -> np.ndarray:
    """Every power of two and of ten in range and the range edges, each
    with both ``math.nextafter`` neighbours, plus +-0.0."""
    centers = [2.0**k for k in range(-14, 54)]
    centers += [10.0**k for k in range(-5, 17)]
    centers += [LOW, HIGH, 1e-4, HIGH - 1.0]
    out = [0.0, -0.0]
    for c in centers:
        for v in (math.nextafter(c, 0.0), c, math.nextafter(c, math.inf)):
            out += [v, -v]
    return np.array(out)


GENERATORS = (_random_bits, _log_uniform, _integers, _decimals)


def draws(count: int, seed: int, chunk: int = 1 << 18):
    """``count`` seeded doubles as float64 chunks, the edges first."""
    rng = np.random.default_rng(seed)
    first = edges()
    yield first
    left = count - len(first)
    while left > 0:
        n = min(chunk, left)
        share = -(-n // len(GENERATORS))
        block = np.concatenate([g(rng, share) for g in GENERATORS])[:n]
        left -= len(block)
        yield block


def native_texts(values: array) -> list[str | None]:
    """Each value's native text, or None where the formatter declines."""
    from repro.backends.c_backend import _ffi
    from repro.serve import jsontext

    lib = jsontext.load()
    if lib is None:
        raise RuntimeError("the native formatter is unavailable")
    ffi = _ffi()
    n = len(values)
    src = ffi.from_buffer("double[]", values)
    out = bytearray(2 + jsontext.WIDTH * max(n, 1))
    buf = ffi.from_buffer(out)
    length = ffi.new("long long *")
    texts: list[str | None] = []
    i = 0
    while i < n:
        done = lib.repro_json_f64(src + i, n - i, buf, length)
        end = length[0] - (1 if done == n - i else 0)
        if done:
            texts += out[1:end].decode("ascii").split(", ")
        i += done
        if i < n:
            texts.append(None)
            i += 1
    return texts


def check(values) -> dict:
    """Mismatches and declines of the formatter over ``values``."""
    values = array("d", np.asarray(values, dtype=np.float64).tobytes())
    mismatches, unexplained, declined, declined_in_range = [], [], 0, 0
    for x, text in zip(values.tolist(), native_texts(values)):
        if text is None:
            declined += 1
            if accepted(x):
                declined_in_range += 1
                if not must_decline(x):
                    unexplained.append(x.hex())
        elif text != repr(x):
            mismatches.append((x.hex(), repr(x), text))
    return {
        "values": len(values),
        "mismatches": mismatches,
        "unexplained": unexplained,
        "declined": declined,
        "declined_in_range": declined_in_range,
    }


def run(count: int, seed: int) -> dict:
    """:func:`check` over :func:`draws`, totalled."""
    total = {"values": 0, "mismatches": [], "unexplained": [],
             "declined": 0, "declined_in_range": 0}
    for block in draws(count, seed):
        part = check(block)
        for key in total:
            total[key] += part[key]
    return total


#: A JSON number literal: sign and integer part, fraction, exponent.
NUMBER = re.compile(r"(-?(?:0|[1-9][0-9]*))(?:\.([0-9]+))?(?:[eE]([-+]?[0-9]+))?")

#: The scanner declines a literal whose value, rounded to 53 bits with
#: an unbounded exponent, falls below the least normal double or reaches
#: 2**1024: exactly the values below TINY or from HUGE on.
TINY = Fraction(2) ** -1022 - Fraction(2) ** -1076
HUGE = Fraction(2) ** 1024 - Fraction(2) ** 970


def stored(token: str) -> float:
    """The double the stdlib path stores for a literal in ``val``:
    ``json.loads`` then ``array('d')``, so ``float(int(text))`` for an
    integer literal (``-0`` is ``0.0``) and ``float(text)`` otherwise."""
    return array("d", [json.loads(token)])[0]


def literal_must_decline(token: str) -> bool:
    """Whether the scanner's rules decline the literal ``token``.

    They are the C comment's in :mod:`repro.serve.jsontext`: not a
    number literal, more than 19 significant digits, a decimal exponent
    outside ``[Q_MIN, Q_MAX]``, a value outside ``[TINY, HUGE)``, or an
    approximation that cannot decide (a remainder below the digits,
    without the exact branch for ``w / 5**k``).
    """
    from repro.serve.jsontext import Q_EXACT, Q_MAX, Q_MIN, pow5

    match = NUMBER.fullmatch(token)
    if match is None:
        return True
    whole, frac, exp = match.groups()
    frac = frac or ""
    digits = (whole.lstrip("-") + frac).lstrip("0")
    if len(digits) > 19:
        return True
    w = int(digits or "0")
    if w == 0:
        return False
    q = int(exp or "0") - len(frac)
    if not Q_MIN <= q <= Q_MAX:
        return True
    if not TINY <= w * Fraction(10) ** q < HUGE:
        return True
    if 0 <= q <= Q_EXACT:
        return False
    x, _shift = pow5(q)
    p = w * x
    if p % 2 ** (p.bit_length() - 54) >= w:
        return False
    return not (-27 <= q < 0 and w % 5**-q == 0)


def _literal(r: random.Random) -> str:
    """One random literal: 1-25 digits, a sign, and a layout: integer,
    integer.fraction, 0.000digits, or digits with an exponent in
    -30..30."""
    n = r.randint(1, 25)
    digits = str(r.randrange(10 ** (n - 1), 10**n))
    sign = r.choice(("", "-"))
    layout = r.randrange(4)
    if layout == 0:
        return sign + digits
    if layout == 1 and n > 1:
        k = r.randint(1, n - 1)
        return f"{sign}{digits[:k]}.{digits[k:]}"
    if layout == 2:
        return f"{sign}0.{'0' * r.randint(0, 6)}{digits}"
    mantissa = digits if n == 1 or r.random() < 0.3 else (
        f"{digits[0]}.{digits[1:]}"
    )
    exp = r.randint(-30, 30)
    e = r.choice("eE")
    plus = "+" if exp >= 0 and r.random() < 0.5 else ""
    return f"{sign}{mantissa}{e}{plus}{exp}"


def literal_edges() -> list[str]:
    """Zeros, integer edges, every table entry as 1, 5 and 19 nines, the
    range ends of doubles, ties and exact dyadic values, and literals
    that are not numbers or not JSON."""
    tokens = ["0", "-0", "0.0", "-0.0", "0e0", "-0e-5", "0.000e99999",
              "1", "-1", "2.5", "0.5", "1.25", "0.1", "0.3",
              "9007199254740992", "9007199254740993", "9007199254740995",
              "9007199254740993.0", "900719925474099.25", "4503599627370497.5",
              "9999999999999999999", "18446744073709551615",
              "1.7976931348623157e308", "1.7976931348623158e308",
              "1.7976931348623159e308", "2.2250738585072014e-308",
              "2.2250738585072011e-308", "2.225073858507201e-308",
              "4.9406564584124654e-324", "5e-324", "1e-400", "1e400",
              "1e23", "8.98846567431158e307", "1e1000000000000000000",
              "NaN", "Infinity", "-Infinity", "01", "1.", ".5", "+1",
              "1e", "1e+", "--1", "0x10", "1_000"]
    for q in range(-350, 316):
        tokens += [f"1e{q}", f"5e{q}", f"9999999999999999999e{q}"]
    return tokens


def literals(count: int, seed: int, chunk: int = 1 << 16):
    """``count`` seeded literals in chunks, the edges first: the JSON
    text of the format direction's generators, and random decimals."""
    rng = np.random.default_rng(seed + 1)
    r = random.Random(seed)
    first = literal_edges()
    yield first
    left = count - len(first)
    while left > 0:
        n = min(chunk, left)
        half = n // 2
        share = -(-half // len(GENERATORS))
        doubles = np.concatenate([g(rng, share) for g in GENERATORS])[:half]
        tokens = [json.dumps(x) for x in doubles.tolist()]
        tokens += [_literal(r) for _ in range(n - len(tokens))]
        left -= len(tokens)
        yield tokens


def scan(text: str, field: str = "val"):
    """The typed array the daemon's scanner for the matrix field
    ``field`` reads from the JSON array ``text``, or None where it
    declines."""
    from repro.backends.c_backend import _ffi
    from repro.serve import jsontext

    lib = jsontext.load()
    if lib is None:
        raise RuntimeError("the native scanner is unavailable")
    ffi = _ffi()
    body = text.encode()
    found = jsontext._scan_array(ffi, lib, ffi.from_buffer(body), body, 0,
                                 jsontext._FIELDS[field])
    return None if found is None else found[0]


def native_values(tokens: list[str]) -> list[float | None]:
    """Each literal as the scanner reads it alone in an array, or None
    where it declines."""
    values: list[float | None] = []
    for token in tokens:
        read = scan(f"[{token}]")
        values.append(None if read is None else read[0])
    return values


def check_literals(tokens: list[str]) -> dict:
    """Mismatches and declines of the scanner over ``tokens``."""
    mismatches, unexplained, declined = [], [], 0
    for token, value in zip(tokens, native_values(tokens)):
        if value is None:
            declined += 1
            if not literal_must_decline(token):
                unexplained.append(token)
        elif value.hex() != stored(token).hex():
            mismatches.append((token, stored(token).hex(), value.hex()))
    return {
        "values": len(tokens),
        "mismatches": mismatches,
        "unexplained": unexplained,
        "declined": declined,
    }


def run_literals(count: int, seed: int) -> dict:
    """:func:`check_literals` over :func:`literals`, totalled."""
    total = {"values": 0, "mismatches": [], "unexplained": [],
             "declined": 0}
    for block in literals(count, seed):
        part = check_literals(block)
        for key in total:
            total[key] += part[key]
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=10**7)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    from repro.serve import jsontext

    if jsontext.load() is None:
        print("check_json_floats: the native library is unavailable "
              "(needs cffi and a C compiler)", file=sys.stderr)
        return 2
    total = run(args.count, args.seed)
    n = total["values"]
    print(f"format: {n} doubles, {len(total['mismatches'])} mismatches, "
          f"{total['declined']} declined ({total['declined'] / n:.2%}), "
          f"{total['declined_in_range']} of them in the accepted range, "
          f"{len(total['unexplained'])} unexplained")
    for hexed, want, got in total["mismatches"][:20]:
        print(f"  {hexed}: repr {want!r}, native {got!r}")
    for hexed in total["unexplained"][:20]:
        print(f"  {hexed}: declined without a tie or boundary candidate")
    parsed = run_literals(args.count, args.seed)
    n = parsed["values"]
    print(f"parse: {n} literals, {len(parsed['mismatches'])} mismatches, "
          f"{parsed['declined']} declined ({parsed['declined'] / n:.2%}), "
          f"{len(parsed['unexplained'])} unexplained")
    for token, want, got in parsed["mismatches"][:20]:
        print(f"  {token}: stdlib {want}, native {got}")
    for token in parsed["unexplained"][:20]:
        print(f"  {token}: declined inside the accepted range")
    failed = (total["mismatches"] or total["unexplained"]
              or parsed["mismatches"] or parsed["unexplained"])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
