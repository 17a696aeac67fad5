"""The daemon's JSON text, both ways: typed arrays natively.

:func:`encode` is the one encoder of the daemon's worker-built responses:
it returns exactly ``json.dumps(payload).encode()``.  It walks the
payload's dicts and lists itself, writes every typed result array
(``array('q')``/``array('d')``) through :func:`array_text` and hands
everything else to ``json.dumps``.

:func:`decode` is the one decoder of ``/convert`` bodies: it returns
what ``json.loads(body.decode("utf-8"))`` returns, except that the
matrix's ``row`` and ``col`` arrive as ``array('q')`` and its ``val`` as
``array('d')`` when the scanners below read them.  It walks the
top-level object and ``matrix`` itself (keys through
``json.decoder.scanstring``, every other value through the stdlib's C
scanner) and hands each of the three arrays to a scanner, which parses
it whole or declines it; a declined array goes to the stdlib's scanner
at the same offset.  A body that is not ASCII, is not an object, or has
a syntax error goes to ``json.loads`` whole, so every refusal is the
stdlib's own.

Both directions have one fork: the library below, loaded or not.  It
writes ``int64`` as decimal and ``float64`` as ``float.__repr__`` does,
and parses int64 and float64 literals exactly as ``int()`` and
``float()`` do, declining every value whose digits or bits it cannot
decide exactly; cffi drops the interpreter lock for each call.  When it
is not loaded, arrays take ``json.dumps`` and ``json.loads`` whole.
Either way the bytes written and the values read are the same.

The library is built through :func:`repro.backends.c_backend.load_library`
(the C tier's content-hashed artifact cache, compile counters and
toolchain check) by :func:`load`, which the daemon runs on a background
thread at start-up; bodies handled before it loads take the stdlib
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

_FORMAT_C = r"""
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

#: The decimal exponents q the scanner's table covers, as in
#: ``digits * 10**q``.  Below Q_MIN a value of at most 19 digits is under
#: 10**-324, so zero or subnormal; above Q_MAX it is infinite.  Up to
#: Q_EXACT the entry is exact (5**q < 2**128).
Q_MIN, Q_EXACT, Q_MAX = -342, 55, 308


def pow5(q: int) -> tuple[int, int]:
    """The scanner's table entry for ``10**q``: ``(X, S)`` with
    ``10**q * 2**-S`` equal to ``X = 5**q`` for ``0 <= q <= Q_EXACT``,
    and strictly between ``X - 1`` and ``X``, where
    ``2**127 < X < 2**128``, for every other q."""
    if 0 <= q <= Q_EXACT:
        return 5**q, q
    if q > 0:
        t = (5**q).bit_length() - 128
        return -(-(5**q) // 2**t), q + t
    b = 127 + (5**-q).bit_length()
    return 2**b // 5**-q + 1, q - b


def _pow5_table() -> str:
    """The C text of the range and of :func:`pow5`'s table."""
    rows = []
    for q in range(Q_MIN, Q_MAX + 1):
        x, shift = pow5(q)
        hi, lo = divmod(x, 2**64)
        rows.append(f"    {{0x{hi:x}ULL, 0x{lo:x}ULL, {shift}}},")
    return (
        f"#define Q_MIN ({Q_MIN})\n#define Q_EXACT {Q_EXACT}\n"
        f"#define Q_MAX {Q_MAX}\n\n"
        "/* POW5[q - Q_MIN] = {X >> 64, X mod 2**64, S} of pow5(q). */\n"
        "typedef struct { u64 hi, lo; int shift; } pow5_entry;\n"
        "static const pow5_entry POW5[] = {\n" + "\n".join(rows) + "\n};\n"
    )


_SCAN_C = r"""
/* JSON arrays of number literals, read as int() and float() read them.
 *
 * repro_json_scan_i64 and repro_json_scan_f64 read s[0..n), which must
 * be exactly one JSON array of number literals: '[' first, ']' last, JSON
 * whitespace around values and commas.  They store the values in a
 * buffer malloc'd into *out (release it with repro_free) and return how
 * many there are, or return -1 with *out NULL to decline the whole
 * array: any other kind of element, a malformed literal, or a literal
 * the rules below cannot decide exactly.  The caller then parses the
 * array with the stdlib.
 *
 * i64: an integer literal (no fraction, no exponent) within int64.
 *
 * f64: the double float(token) gives, bit for bit.  A literal is a sign,
 * w (its digits without leading zeros, at most 19 of them, so w < 2**64)
 * and q, with value w * 10**q.  w = 0 gives +-0.0 as float() does (the
 * integer literal "-0" is the int 0, so +0.0).  w > 0 is accepted when
 * Q_MIN <= q <= Q_MAX and the value rounded to 53 bits is a normal
 * double (from 2**-1022, below 2**1024), unless the approximation below
 * cannot decide it.  Integer arithmetic only: no strtod (it reads
 * LC_NUMERIC) and no libm.
 *
 * With (X, S) = POW5[q - Q_MIN], let E = w * 10**q * 2**-S, so the value
 * is E * 2**S, and P = w * X, exact in 192 bits.  With n = bitlen(P) and
 * c = n - 54, t = floor(P / 2**c) holds P's top 54 bits and
 * R = P mod 2**c the rest.
 *
 * Exact entries (0 <= q <= Q_EXACT): E = P.  The double's 53 bits are
 * t's top 53, rounded up when t's last bit is 1 and R > 0 or the 53 bits
 * are odd (ties to even).
 *
 * Other entries: 0 < P - E < w, and P > 2**127, so c >= 74.  If R >= w,
 * E has the same top 54 bits t and a remainder R - (P - E) strictly
 * between 0 and 2**c, so E is no tie and t's last bit alone decides the
 * rounding.  If R < w the approximation cannot decide.  Where 5**k
 * divides w for k = -q <= 27, w * 10**q is the integer w / 5**k (rounded
 * through the exact entry q = 0) times 2**-k: that is how short values
 * such as 0.5 or 1.25 take this branch.  Every other R < w declines; it
 * needs R, at least 74 bits wide, to fall below w < 2**64 by chance.
 *
 * The double is m * 2**(c + 1 + S), m being the rounded 53 bits (2**53
 * after rounding up is 2**52 one binade up).  A biased exponent outside
 * 1..2046 declines.
 */
#include <stdlib.h>

static int bitlen(u64 x) { return x ? 64 - __builtin_clzll(x) : 0; }

/* The bits of the double nearest w * 10**q (w > 0), or 0 to decline. */
static int f64_bits(u64 w, long long q, u64 *bits) {
    if (q < Q_MIN || q > Q_MAX) return 0;
    const pow5_entry *x = &POW5[q - Q_MIN];
    u128 lo = (u128)w * x->lo;
    u128 hi = (u128)w * x->hi + (lo >> 64);  /* P = hi * 2**64 + p0 */
    u64 p0 = (u64)lo, p1 = (u64)hi, p2 = (u64)(hi >> 64);
    int n = p2 ? 128 + bitlen(p2) : p1 ? 64 + bitlen(p1) : bitlen(p0);
    int c = n - 54, small, zero;  /* R < w, R == 0 */
    u64 t;
    if (c <= 0) {
        t = p0 << -c;
        small = zero = 1;
    } else if (c < 64) {
        u64 r = p0 & ((1ULL << c) - 1);
        t = (u64)(hi << (64 - c)) | p0 >> c;
        small = r < w;
        zero = r == 0;
    } else {
        u128 r = hi & (((u128)1 << (c - 64)) - 1);
        t = (u64)(hi >> (c - 64));
        small = r == 0 && p0 < w;
        zero = r == 0 && p0 == 0;
    }
    u64 m = t >> 1;
    if (q >= 0 && q <= Q_EXACT) {
        m += (t & 1) && (!zero || (m & 1));
    } else if (!small) {
        m += t & 1;
    } else if (q < 0 && q >= -27 && w % POW5[-q - Q_MIN].lo == 0) {
        if (!f64_bits(w / POW5[-q - Q_MIN].lo, 0, bits)) return 0;
        *bits -= (u64)-q << 52;
        return 1;
    } else {
        return 0;
    }
    int e = c + 1 + x->shift + 1075;  /* biased exponent of m * 2**... */
    if (m >> 53) {
        m >>= 1;
        e++;
    }
    if (e < 1 || e > 2046) return 0;
    *bits = (u64)e << 52 | (m & ((1ULL << 52) - 1));
    return 1;
}

typedef struct { u64 w; long long q; int neg, integer; } number;

static int digit(const char *p, const char *end) {
    return p < end && *p >= '0' && *p <= '9';
}

/* The number literal at p (before end) as sign, w, q and whether it is
 * an integer literal; returns its end, or 0 when p holds none or it has
 * more than 19 digits.  What follows it is the caller's to check.  An
 * exponent saturates at 10**15: past any fraction a body can hold, so q
 * stays out of range. */
static const char *read_number(const char *p, const char *end,
                               number *t) {
    u64 w = 0;
    long long q = 0;
    int digits = 0;
    t->neg = p < end && *p == '-';
    p += t->neg;
    if (!digit(p, end)) return 0;
    if (*p == '0') {
        p++;
    } else {
        for (; digit(p, end); p++) {
            if (++digits > 19) return 0;
            w = w * 10 + (u64)(*p - '0');
        }
    }
    t->integer = 1;
    if (p < end && *p == '.') {
        t->integer = 0;
        if (!digit(++p, end)) return 0;
        for (; digit(p, end); p++, q--) {
            if (w == 0 && *p == '0') continue;
            if (++digits > 19) return 0;
            w = w * 10 + (u64)(*p - '0');
        }
    }
    if (p < end && (*p == 'e' || *p == 'E')) {
        int minus = 0;
        long long e = 0;
        t->integer = 0;
        p++;
        if (p < end && (*p == '+' || *p == '-')) minus = *p++ == '-';
        if (!digit(p, end)) return 0;
        for (; digit(p, end); p++)
            e = e < 100000000000000LL ? e * 10 + (*p - '0')
                                      : 1000000000000000LL;
        q += minus ? -e : e;
    }
    t->w = w;
    t->q = q;
    return p;
}

static int to_i64(const number *t, long long *v) {
    if (!t->integer || t->w > (1ULL << 63) - !t->neg) return 0;
    *v = !t->neg ? (long long)t->w
         : t->w ? -(long long)(t->w - 1) - 1 : 0;
    return 1;
}

static int to_f64(const number *t, double *v) {
    u64 bits = 0;
    if (t->w && !f64_bits(t->w, t->q, &bits)) return 0;
    if (t->neg && (t->w || !t->integer)) bits |= 1ULL << 63;
    memcpy(v, &bits, sizeof bits);
    return 1;
}

static int ws(char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

static long long scan_array(const char *s, long long n, int f64,
                            char **out) {
    const char *p = s + 1, *end = s + n - 1;
    /* Each value takes a digit and a separator. */
    char *buf = malloc(8 * (size_t)(n / 2 + 1));
    long long count = 0;
    *out = buf;
    if (!buf) return -1;
    if (n < 2 || s[0] != '[' || *end != ']') goto decline;
    while (p < end && ws(*p)) p++;
    while (p < end) {
        number t;
        p = read_number(p, end, &t);
        if (!p) goto decline;
        if (f64 ? !to_f64(&t, (double *)buf + count)
                : !to_i64(&t, (long long *)buf + count))
            goto decline;
        count++;
        while (p < end && ws(*p)) p++;
        if (p == end) break;
        if (*p != ',') goto decline;
        do p++; while (p < end && ws(*p));
        if (p == end) goto decline;  /* a trailing comma */
    }
    return count;
decline:
    free(buf);
    *out = 0;
    return -1;
}

long long repro_json_scan_i64(const char *s, long long n, long long **out) {
    char *buf;
    long long count = scan_array(s, n, 0, &buf);
    *out = (long long *)buf;
    return count;
}

long long repro_json_scan_f64(const char *s, long long n, double **out) {
    char *buf;
    long long count = scan_array(s, n, 1, &buf);
    *out = (double *)buf;
    return count;
}

void repro_free(void *p) { free(p); }
"""

#: The formatter's and the scanners' one translation unit.
C_SOURCE = _FORMAT_C + _pow5_table() + _SCAN_C

#: Typecode -> (formatter function, cffi buffer type).
_KINDS = {
    "q": ("repro_json_i64", "long long[]"),
    "d": ("repro_json_f64", "double[]"),
}

_LIB = None
_LOAD_LOCK = threading.Lock()


def load():
    """Build (or find in the artifact cache) and load the library: the
    formatter and the scanners.

    Returns the library, or None when the C tier is unavailable or the
    build fails; either way :func:`encode` writes the same bytes and
    :func:`decode` reads the same values.  Safe to call from several
    threads: the first builds, the rest wait.
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
    """The library if it has loaded, else None; never waits for it."""
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


# -- the request side ----------------------------------------------------
_WS = json.decoder.WHITESPACE.match
#: The stdlib's value scanner (its C one when built) and string reader,
#: configured as ``json.loads`` configures them.
_SCAN_ONCE = json.JSONDecoder().scan_once
_SCANSTRING = json.decoder.scanstring

#: Matrix field -> (scanner, cffi type of its out pointer, typecode).
_FIELDS = {
    "row": ("repro_json_scan_i64", "long long **", "q"),
    "col": ("repro_json_scan_i64", "long long **", "q"),
    "val": ("repro_json_scan_f64", "double **", "d"),
}


def decode_path(body: bytes, lib) -> str:
    """How :func:`decode` reads ``body`` with ``lib``: ``"native"`` or
    ``"stdlib"``.  Only an ASCII body has byte offsets equal to its str
    offsets, which the walk relies on."""
    return "native" if lib is not None and body.isascii() else "stdlib"


def decode(body: bytes, lib):
    """``json.loads(body.decode("utf-8"))``, the matrix's arrays typed.

    ``lib`` is the loaded library, or None for the stdlib path.  On the
    native path ``matrix.row`` and ``matrix.col`` arrive as
    ``array('q')`` and ``matrix.val`` as ``array('d')``, each one the
    scanners read whole; any other value is what ``json.loads`` gives.
    Every exception, a RecursionError on a deeply nested body among
    them, is the one ``json.loads`` raises.
    """
    if decode_path(body, lib) == "stdlib":
        return json.loads(body.decode("utf-8"))
    text = body.decode("ascii")
    try:
        return _document(body, text, lib)
    except (ValueError, IndexError, StopIteration, RecursionError):
        return json.loads(text)


def _document(body: bytes, text: str, lib) -> dict:
    """The top-level object of the ASCII ``body`` (``text`` decoded).

    Raises ValueError, IndexError, StopIteration or RecursionError where
    the body is not one well-formed object.
    """
    ffi = c_backend._ffi()
    src = ffi.from_buffer(body)

    def member(key, i):
        if key == "matrix" and text[i] == "{":
            return _object(text, i, matrix_member)
        return _SCAN_ONCE(text, i)

    def matrix_member(key, i):
        field = _FIELDS.get(key)
        if field is not None and text[i] == "[":
            found = _scan_array(ffi, lib, src, body, i, field)
            if found is not None:
                return found
        return _SCAN_ONCE(text, i)

    i = _WS(text, 0).end()
    if text[i] != "{":
        raise ValueError("not an object")
    doc, i = _object(text, i, member)
    if _WS(text, i).end() != len(text):
        raise ValueError("extra data")
    return doc


def _object(text: str, i: int, member) -> tuple[dict, int]:
    """The object whose ``{`` is ``text[i]``, and the index past its
    ``}``.  ``member(key, j)`` reads the value at ``j`` as
    ``(value, end)``; a repeated key keeps its last value, as in
    ``json.loads``."""
    obj: dict = {}
    i = _WS(text, i + 1).end()
    if text[i] == "}":
        return obj, i + 1
    while text[i] == '"':
        key, i = _SCANSTRING(text, i + 1)
        i = _WS(text, i).end()
        if text[i] != ":":
            break
        obj[key], i = member(key, _WS(text, i + 1).end())
        i = _WS(text, i).end()
        if text[i] == "}":
            return obj, i + 1
        if text[i] != ",":
            break
        i = _WS(text, i + 1).end()
    raise ValueError("malformed object")


def _scan_array(ffi, lib, src, body: bytes, i: int, field):
    """The typed array the scanner reads from the array at ``body[i]``,
    and the index past it; None where it declines."""
    name, ctype, typecode = field
    end = body.find(b"]", i) + 1
    if not end:
        return None
    out = ffi.new(ctype)
    count = getattr(lib, name)(src + i, end - i, out)
    if count < 0:
        return None
    values = array(typecode)
    try:
        values.frombytes(ffi.buffer(out[0], 8 * count))
    finally:
        lib.repro_free(out[0])
    return values, end
