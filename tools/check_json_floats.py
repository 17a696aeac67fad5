#!/usr/bin/env python
"""Check the daemon's native float64 JSON formatter against ``float.__repr__``.

:mod:`repro.serve.jsontext` writes result arrays through a C formatter
that either prints a double exactly as ``float.__repr__`` does or
declines it.  This draws seeded doubles from the generators below, runs
each through the formatter on its own, and counts a mismatch wherever
the formatter printed something other than ``repr``.  A declined value
is never a mismatch (the daemon hands it to ``json.dumps``); one inside
the accepted range must be a value the formatter's rules decline (see
:func:`must_decline`), else it counts as an unexplained decline.

The tier-1 suite runs the same generators at 2x10^5 values; CI runs this
script at 10^7.

Usage: ``python tools/check_json_floats.py [--count N] [--seed S]``.
Prints the declined share; exits 1 on any mismatch or unexplained
decline, and 2 when the formatter cannot be built (no cffi or no C
compiler).
"""

from __future__ import annotations

import argparse
import math
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=10**7)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    from repro.serve import jsontext

    if jsontext.load() is None:
        print("check_json_floats: the native formatter is unavailable "
              "(needs cffi and a C compiler)", file=sys.stderr)
        return 2
    total = run(args.count, args.seed)
    n = total["values"]
    print(f"{n} doubles, {len(total['mismatches'])} mismatches, "
          f"{total['declined']} declined ({total['declined'] / n:.2%}), "
          f"{total['declined_in_range']} of them in the accepted range, "
          f"{len(total['unexplained'])} unexplained")
    for hexed, want, got in total["mismatches"][:20]:
        print(f"  {hexed}: repr {want!r}, native {got!r}")
    for hexed in total["unexplained"][:20]:
        print(f"  {hexed}: declined without a tie or boundary candidate")
    return 1 if total["mismatches"] or total["unexplained"] else 0


if __name__ == "__main__":
    sys.exit(main())
