"""Response bodies as ``json.dumps`` writes them, result arrays natively.

:func:`encode` is the one encoder of the daemon's worker-built responses:
it returns exactly ``json.dumps(payload).encode()``.  It walks the
payload's dicts and lists itself, writes every typed result array
(``array('q')``/``array('d')``) through :func:`array_text` and hands
everything else to ``json.dumps``.

:func:`array_text` has one fork.  When the formatter below is loaded it
writes the array's JSON text in C (cffi drops the interpreter lock for
the call); the formatter writes ``int64`` as decimal and ``float64`` as
``float.__repr__`` does, declining every value whose digits it cannot
decide exactly, and ``json.dumps(values[i:].tolist())`` finishes an
array from its first declined value.  When the formatter is not loaded
the whole array takes that stdlib call.  Either way the bytes are the
same.

The formatter is built through :func:`repro.backends.c_backend.load_library`
(the C tier's content-hashed artifact cache, compile counters and
toolchain check) by :func:`load`, which the daemon runs on a background
thread at start-up; responses written before it loads take the stdlib
path.  It is available exactly when the C tier's ``require()`` passes.
"""

from __future__ import annotations

import json
import threading
from array import array

from repro.backends import c_backend, get_backend
from repro.backends.registry import BackendUnavailableError

#: Bytes one value may take, separator included: 23 for the longest
#: accepted float64 (sign, ``0.000`` and 17 digits, or 17 digits, ``.``
#: and ``e-05``), 20 for an int64, plus ``", "``.
WIDTH = 25

C_SOURCE = r"""
/* JSON array text for typed arrays, as Python's json.dumps writes them:
 * int64 as decimal, float64 as float.__repr__ does (the shortest digits
 * that read back as the value, in repr's layout).  Integer arithmetic
 * only: no printf, no libm.
 *
 * Each function writes '[' and then v[0], v[1], ... separated by ", "
 * into out, which holds at least 2 + 25 * n bytes.  It stops before the
 * first value it declines and returns how many values it wrote; the
 * closing ']' follows only when that is all n.  *len receives the bytes
 * written.
 */
#include <string.h>

typedef unsigned long long u64;
typedef unsigned __int128 u128;

#define P19 10000000000000000000ULL

/* 10**k for k <= 20, the largest K fmt_f64 uses (at e = -66). */
static const u128 POW10[21] = {
    1ULL, 10ULL, 100ULL, 1000ULL, 10000ULL, 100000ULL, 1000000ULL,
    10000000ULL, 100000000ULL, 1000000000ULL, 10000000000ULL,
    100000000000ULL, 1000000000000ULL, 10000000000000ULL,
    100000000000000ULL, 1000000000000000ULL, 10000000000000000ULL,
    100000000000000000ULL, 1000000000000000000ULL, P19,
    (u128)P19 * 10,
};

static char *put_digits(char *p, const char *d, int n) {
    memcpy(p, d, (size_t)n);
    return p + n;
}

static char *fmt_i64(long long x, char *p) {
    char buf[20], *d = buf + 20;
    u64 u = x < 0 ? 0 - (u64)x : (u64)x;
    if (x < 0) *p++ = '-';
    do { *--d = (char)('0' + u % 10); u /= 10; } while (u);
    return put_digits(p, d, (int)(buf + 20 - d));
}

/* float64 -> repr text, or 0 to decline.
 *
 * Accepted: +-0.0 and the normal doubles x = m * 2**e with
 * 2**52 <= m < 2**53 and -66 <= e <= 0, i.e. 2**-14 <= |x| < 2**53
 * (which holds 1e-4 <= |x| < 2**53).  Subnormals, NaN, inf and every
 * other magnitude decline.
 *
 * repr prints the decimal with the fewest significant digits that reads
 * back as x, and among those the one nearest x.  In units of 2**(e-2), x
 * is 4m, and what reads back as x lies between 4m-2 and 4m+2 (4m-1 below
 * a power of two, where the gap to the next smaller double halves).
 * Multiplying by 10**K and shifting right by s = 2-e maps x and the two
 * boundaries onto VR = x * 10**K and VM < VR < VP, exactly: vr, vm, vp
 * are the integer parts, rr keeps the bits VR shifts out, and
 * vm_exact/vp_exact say whether a boundary is an integer.
 *
 * The integers strictly between VM and VP are lo..hi.  The strip loop
 * finds the largest r for which a multiple of 10**r lies in lo..hi; the
 * multiples c * 10**r there are the shortest candidates.  (Every double
 * rounds within 2**-51 of itself, so they cannot span a decade without
 * the power of ten itself being a shorter candidate.)  c is VR / 10**r
 * rounded to nearest and clamped into range; VR exactly halfway between
 * two candidates declines.  A boundary reads back as x only when m is
 * even, so one that is itself a multiple of 10**r could be a shorter or
 * nearer candidate: that declines as well.  (At this K a boundary is an
 * integer only when e = 0, as 10m +- 5 with 10m between them, so the
 * check never fires there; it keeps the search exact for any K.)  c
 * then has no trailing zero and x's text is c * 10**(r-K).
 *
 * K = floor(-e * log10(2)) + 1, computed as ((-e * 78913) >> 18) + 1,
 * exact for 0 <= -e <= 1650.  It puts 10**K in (2**-e, 10 * 2**-e], so
 * VP - VM = 10**K * 2**e > 1 and some integer lies in between (below a
 * power of two VR is itself an integer).
 *
 * No intermediate overflows 128 bits, even with K one too large:
 *   4m + 2 < 2**55 and 10**K <= 100 * 2**-e <= 100 * 2**66, so every
 *   product (4m + 2) * 10**K < 100 * 2**121 < 2**128;
 *   vr, vp, vm <= (4m + 2) * 10**K / 2**(2-e) < 100 * 2**53 < 2**60, so
 *   lo + 9 and every 10**r <= hi stay below 2**64;
 *   s <= 68, so the mask, rr and half fit.
 * With K one too small the interval may hold no integer: lo > hi
 * declines.  A declined value is never written, so the caller's stdlib
 * fallback keeps the text exact. */
static char *fmt_f64(double x, char *p) {
    u64 bits;
    memcpy(&bits, &x, sizeof bits);
    u64 frac = bits & ((1ULL << 52) - 1);
    int biased = (int)(bits >> 52) & 0x7ff;
    if (bits >> 63) *p++ = '-';
    if (biased == 0) {
        if (frac) return 0;
        memcpy(p, "0.0", 3);
        return p + 3;
    }
    int e = biased - 1075;
    if (e < -66 || e > 0) return 0;
    u64 m = frac | (1ULL << 52);
    int s = 2 - e;
    int K = ((-e * 78913) >> 18) + 1;
    u128 mask = ((u128)1 << s) - 1;
    u128 R = (u128)(4 * m) * POW10[K];
    u128 H = (u128)(4 * m + 2) * POW10[K];
    u128 L = (u128)(4 * m - (frac ? 2 : 1)) * POW10[K];
    u64 vr = (u64)(R >> s), vp = (u64)(H >> s), vm = (u64)(L >> s);
    u128 rr = R & mask;
    int vp_exact = (H & mask) == 0, vm_exact = (L & mask) == 0;
    u64 lo = vm + 1, hi = vp - (u64)vp_exact;
    if (lo > hi) return 0;
    /* After r strips: lo..hi = the multiples of 10**r in range, divided
     * by 10**r; vr = floor(VR / 10**r); last = the last digit stripped
     * from VR; zeros = whether everything below it was zero. */
    int r = 0, last = 0, zeros = rr == 0;
    while ((lo + 9) / 10 <= hi / 10) {
        zeros &= last == 0;
        last = (int)(vr % 10);
        vr /= 10;
        lo = (lo + 9) / 10;
        hi /= 10;
        r++;
    }
    u64 step = (u64)POW10[r];
    if ((vm_exact && vm % step == 0) || (vp_exact && vp % step == 0))
        return 0;
    int up;
    if (r == 0) {
        u128 half = (u128)1 << (s - 1);
        if (rr == half) return 0;
        up = rr > half;
    } else {
        if (last == 5 && zeros) return 0;
        up = last >= 5;
    }
    u64 c = vr + (u64)up;
    if (c < lo) c = lo;
    if (c > hi) c = hi;

    char buf[20], *d = buf + 20;
    do { *--d = (char)('0' + c % 10); c /= 10; } while (c);
    int n = (int)(buf + 20 - d);
    int decpt = n + r - K;  /* the value is 0.DIGITS * 10**decpt */
    if (decpt <= -4 || decpt > 16) {
        int x10 = decpt - 1;
        *p++ = d[0];
        if (n > 1) {
            *p++ = '.';
            p = put_digits(p, d + 1, n - 1);
        }
        *p++ = 'e';
        *p++ = x10 < 0 ? '-' : '+';
        if (x10 < 0) x10 = -x10;
        if (x10 >= 100) *p++ = (char)('0' + x10 / 100);
        *p++ = (char)('0' + x10 / 10 % 10);
        *p++ = (char)('0' + x10 % 10);
    } else if (decpt <= 0) {
        *p++ = '0';
        *p++ = '.';
        memset(p, '0', (size_t)-decpt);
        p = put_digits(p - decpt, d, n);
    } else if (decpt >= n) {
        p = put_digits(p, d, n);
        memset(p, '0', (size_t)(decpt - n));
        p += decpt - n;
        *p++ = '.';
        *p++ = '0';
    } else {
        p = put_digits(p, d, decpt);
        *p++ = '.';
        p = put_digits(p, d + decpt, n - decpt);
    }
    return p;
}

long long repro_json_i64(const long long *v, long long n, char *out,
                         long long *len) {
    char *p = out;
    long long i;
    *p++ = '[';
    for (i = 0; i < n; i++) {
        if (i) { *p++ = ','; *p++ = ' '; }
        p = fmt_i64(v[i], p);
    }
    *p++ = ']';
    *len = p - out;
    return n;
}

long long repro_json_f64(const double *v, long long n, char *out,
                         long long *len) {
    char *p = out;
    long long i;
    *p++ = '[';
    for (i = 0; i < n; i++) {
        char *q = p;
        if (i) { *q++ = ','; *q++ = ' '; }
        q = fmt_f64(v[i], q);
        if (!q) break;
        p = q;
    }
    if (i == n) *p++ = ']';
    *len = p - out;
    return i;
}
"""

#: Typecode -> (formatter function, cffi buffer type).
_KINDS = {
    "q": ("repro_json_i64", "long long[]"),
    "d": ("repro_json_f64", "double[]"),
}

_LIB = None
_LOAD_LOCK = threading.Lock()


def load():
    """Build (or find in the artifact cache) and load the formatter.

    Returns the library, or None when the C tier is unavailable or the
    build fails; either way :func:`encode` writes the same bytes.  Safe
    to call from several threads: the first builds, the rest wait.
    """
    global _LIB
    with _LOAD_LOCK:
        if _LIB is None:
            try:
                get_backend("c").require()
                _LIB = c_backend.load_library(C_SOURCE)
            except (BackendUnavailableError, c_backend.CCompileError,
                    OSError):
                return None
        return _LIB


def formatter():
    """The formatter if it has loaded, else None; never waits for it."""
    return _LIB


def array_text(values: array, lib) -> bytes | bytearray:
    """``json.dumps(values.tolist()).encode()`` for a typed array.

    ``lib`` is the loaded formatter, or None for the stdlib path.
    """
    kind = _KINDS.get(values.typecode) if lib is not None else None
    if kind is None:
        return json.dumps(values.tolist()).encode()
    name, ctype = kind
    ffi = c_backend._ffi()
    n = len(values)
    out = bytearray(2 + WIDTH * n)
    length = ffi.new("long long *")
    done = getattr(lib, name)(
        ffi.from_buffer(ctype, values), n, ffi.from_buffer(out), length
    )
    del out[length[0]:]
    if done < n:
        rest = json.dumps(values[done:].tolist())
        out += (b", " if done else b"") + rest[1:].encode()
    return out


def encode(payload, lib) -> bytes:
    """``json.dumps(payload).encode()``, typed arrays through
    :func:`array_text` with ``lib``.

    Dicts that hold a typed array are walked here, each run of their
    other items written by one ``json.dumps`` call; every other value
    goes to ``json.dumps`` whole (an array inside a list, too, through
    the encoder hook :mod:`repro.runtime.storage` installs).
    """
    if isinstance(payload, array):
        return bytes(array_text(payload, lib))
    if not _holds_array(payload):
        return json.dumps(payload).encode()
    parts: list = []
    _walk(payload, lib, parts)
    return b"".join(parts)


def _walk(obj: dict, lib, parts: list) -> None:
    """Append the text of ``obj``, a dict holding a typed array."""
    run: dict = {}
    first = True
    for key, value in obj.items():
        if not _holds_array(value):
            run[key] = value
            continue
        # The run with this key and a placeholder 0: its text up to the
        # key's ": " is what json.dumps writes before the value.
        run[key] = 0
        text = json.dumps(run)[:-2]
        parts.append((text if first else ", " + text[1:]).encode())
        first = False
        run = {}
        if isinstance(value, array):
            parts.append(array_text(value, lib))
        else:
            _walk(value, lib, parts)
    parts.append((", " + json.dumps(run)[1:] if run else "}").encode())


def _holds_array(obj) -> bool:
    """Whether ``obj`` is a typed array or a dict holding one."""
    if isinstance(obj, array):
        return True
    return isinstance(obj, dict) and any(map(_holds_array, obj.values()))
