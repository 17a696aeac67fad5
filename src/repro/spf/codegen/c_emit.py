"""Native C99 emission of a lowered SPF program.

This is the one C printer: the compiled backend builds and runs the unit
it prints, and ``repro synthesize --c`` / ``repro kernel --c`` show that
unit without its runtime header (:attr:`CEmitted.listing`).  Conversions
and generated kernels print alike:

* typed signatures — every program compiles to one exported entry point
  ``repro_run(arrs, lens, scalars, out)`` taking the input arrays
  (``int64``/``float64`` buffers, per the symbol table's ``floats``),
  their lengths, the scalar inputs, and an output-buffer table it fills
  in.  A float64 scalar crosses its ``long long`` slot bit for bit, both
  ways; a parameter array the program writes or returns is copied into a
  buffer of its own at entry, so inputs stay ``const``,
* a C runtime in two parts — the permutation structures
  (``OrderedList`` / ``OrderedSet`` / ``LexBucketPermutation``), Morton
  encodings, binary search, and floor-division helpers re-implemented in
  C with ``malloc``/``realloc`` growth, matching the Python runtime in
  :mod:`repro.runtime` element for element.  Every unit embeds the
  header :data:`RUNTIME_H` (types, codes, ``static inline`` per-element
  helpers, prototypes); the routines it declares, :data:`RUNTIME_C`, are
  compiled once per artifact directory into an object every inspector
  library links (:func:`runtime_source` is that object's unit),
* UF calls lowered to array indexing; rank lookups, which
  :mod:`repro.spf.replay` proved replay their insert, read a rank array
  by position.  A stable sort builds it: one counting pass per key
  component with a declared range, 16-bit radix passes for Morton keys
  and components without one.

Statement bodies arrive as the typed kinds of
:mod:`repro.spf.statements`, one C rule each, with expressions rendered
through the shared :class:`~repro.spf.codegen.printers.ExprPrinter`.  A
form the ABI or the runtime cannot carry (a multi-index array, a Morton
key inside a larger expression) raises
:class:`~repro.spf.statements.UnsupportedStatement` at synthesis time,
naming the statement; there is no interpreted fallback.

Error protocol: ``repro_run`` returns 0 on success or an ``RT_E*`` code
the Python wrapper maps back onto the exception the scalar runtime
would have raised (``MemoryError``, ``KeyError``, ``ValueError``), or
``OverflowError`` for a 3-D Morton coordinate of 2**42 or more.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir import FloorDiv, Mod, Sym, UFCall, Var
from .. import statements as st
from ..ast_nodes import Comment, ForLoop, Guard, LetEq, Program, RankLookup
from ..replay import mark_rank_lookups
from .printers import ExprPrinter, SymbolTable

#: Array dtype tags shared with the Python-side marshaller.
I8 = "i8"
F8 = "f8"


@dataclass
class CEmitted:
    """A C translation unit, which links the runtime object, plus its
    marshalling manifest."""

    c_source: str
    #: ``(name, "i8"|"f8")`` for every array parameter, in call order.
    array_params: list = field(default_factory=list)
    #: Scalar parameter names, in call order.
    scalar_params: list = field(default_factory=list)
    #: Positions in :attr:`scalar_params` of the float64 scalars.
    float_scalars: tuple = ()
    #: ``(name, "i8"|"f8"|"scalar"|"fscalar")`` for every return, in
    #: return order.
    returns: list = field(default_factory=list)

    @property
    def listing(self) -> str:
        """The unit without its embedded :data:`RUNTIME_H`: the helpers
        and ``repro_run``."""
        return self.c_source.replace(RUNTIME_H, "", 1)


# ---------------------------------------------------------------------------
# The C runtime: a header every generated translation unit embeds, and the
# routines it declares, compiled once per artifact directory into an object
# each inspector library links (repro.backends.c_backend).
#
# The header holds the types, the RT_* codes and macros, and `static
# inline` definitions of the helpers an inspector calls once per element
# (floor division, min/max, binary search, Morton keys, the sorted-set and
# bucket-permutation inserts and lookups, the ordered-list push and rank):
# out of line, those calls slowed fig2-large's compiled conversions.  The
# bulk routines (sorts, finalizers, init/free/alloc/copy) are declared
# RT_API, hidden in every library that links them, so each library still
# exports only repro_run and repro_free.
# ---------------------------------------------------------------------------

RUNTIME_H = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct { void* ptr; long long len; } rt_buf;

#define RT_OK      0
#define RT_ENOMEM  1   /* -> MemoryError */
#define RT_EKEY    2   /* -> KeyError / IndexError */
#define RT_EVALUE  3   /* -> ValueError (negative Morton coordinate) */
#define RT_ERANGE  4   /* -> OverflowError (3-D Morton coordinate >= 2**42) */
#define RT_ESTATE  5   /* -> RuntimeError (protocol violation) */

#define RT_CK(x) do { rc = (x); if (rc != 0) goto fail; } while (0)

/* Defined once in the runtime object, hidden in every library. */
#define RT_API __attribute__((visibility("hidden")))

/* Python floor division / modulo semantics for negative operands. */
static inline int64_t rt_fdiv(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) q -= 1;
    return q;
}
static inline int64_t rt_fmod(int64_t a, int64_t b) {
    int64_t r = a % b;
    if (r != 0 && ((r < 0) != (b < 0))) r += b;
    return r;
}
#define RT_FDIV(a, b) rt_fdiv((a), (b))
#define RT_FMOD(a, b) rt_fmod((a), (b))
static inline int64_t rt_max2(int64_t a, int64_t b) { return a > b ? a : b; }
static inline int64_t rt_min2(int64_t a, int64_t b) { return a < b ? a : b; }

/* ------------------------------------------------------------------ */
/* Allocation helpers: Python's `[0] * n` yields [] for n < 0, and the */
/* 1-byte floor keeps output pointers non-NULL for len-0 buffers.      */
RT_API int rt_alloc_i64(int64_t n, int64_t** out, int64_t* len_out);
RT_API int rt_alloc_f64(int64_t n, double** out, int64_t* len_out);
RT_API int rt_copy_i64(
    const int64_t* src, int64_t n, int64_t** out, int64_t* len_out);

/* Binary search in a sorted int64 array; -1 when absent (BSEARCH). */
static inline int64_t rt_bsearch(const int64_t* a, int64_t n, int64_t v) {
    int64_t lo = 0, hi = n - 1;
    while (lo <= hi) {
        int64_t mid = (lo + hi) >> 1;
        int64_t entry = a[mid];
        if (entry == v) return mid;
        if (entry < v) lo = mid + 1; else hi = mid - 1;
    }
    return -1;
}

/* Morton (Z-order) keys as two 63-bit words, high word first, which   */
/* the multi-column sort orders as one 126-bit key.  The first         */
/* coordinate takes the low bit, matching repro.runtime.morton.  2-D   */
/* takes every int64 coordinate, 3-D every coordinate below 2**42.     */
static inline uint64_t rt_spread2(uint64_t x) {  /* 32 bits -> even bits */
    x &= 0xFFFFFFFFULL;
    x = (x | (x << 16)) & 0x0000FFFF0000FFFFULL;
    x = (x | (x << 8)) & 0x00FF00FF00FF00FFULL;
    x = (x | (x << 4)) & 0x0F0F0F0F0F0F0F0FULL;
    x = (x | (x << 2)) & 0x3333333333333333ULL;
    return (x | (x << 1)) & 0x5555555555555555ULL;
}
static inline uint64_t rt_spread3(uint64_t x) {  /* 21 bits -> every third bit */
    x &= 0x1FFFFFULL;
    x = (x | (x << 32)) & 0x001F00000000FFFFULL;
    x = (x | (x << 16)) & 0x001F0000FF0000FFULL;
    x = (x | (x << 8)) & 0x100F00F00F00F00FULL;
    x = (x | (x << 4)) & 0x10C30C30C30C30C3ULL;
    return (x | (x << 2)) & 0x1249249249249249ULL;
}
static inline int rt_morton2(int64_t i, int64_t j, int64_t* key) {
    uint64_t lo, hi;  /* key bits 0..63 and 64..125 */
    if (i < 0 || j < 0) return RT_EVALUE;
    lo = rt_spread2((uint64_t)i) | (rt_spread2((uint64_t)j) << 1);
    hi = rt_spread2((uint64_t)i >> 32) | (rt_spread2((uint64_t)j >> 32) << 1);
    key[0] = (int64_t)((hi << 1) | (lo >> 63));
    key[1] = (int64_t)(lo & 0x7FFFFFFFFFFFFFFFULL);
    return RT_OK;
}
static inline int rt_morton3(int64_t i, int64_t j, int64_t k, int64_t* key) {
    const int64_t limit = (int64_t)1 << 42;
    uint64_t x = (uint64_t)i, y = (uint64_t)j, z = (uint64_t)k;
    if (i < 0 || j < 0 || k < 0) return RT_EVALUE;
    if (i >= limit || j >= limit || k >= limit) return RT_ERANGE;
    key[0] = (int64_t)(rt_spread3(x >> 21) | (rt_spread3(y >> 21) << 1)
                       | (rt_spread3(z >> 21) << 2));
    key[1] = (int64_t)(rt_spread3(x) | (rt_spread3(y) << 1)
                       | (rt_spread3(z) << 2));
    return RT_OK;
}

/* ------------------------------------------------------------------ */
/* rt_iset — OrderedSet: sorted unique int64 values, deduplicated at   */
/* insertion (bisect + memmove), exactly like the Python runtime.      */
typedef struct { int64_t* data; int64_t n, cap; } rt_iset;

RT_API void rt_iset_init(rt_iset* s);
RT_API void rt_iset_free(rt_iset* s);
RT_API int rt_iset_to_array(rt_iset* s, int64_t** out, int64_t* len_out);

static inline int rt_iset_insert(rt_iset* s, int64_t v) {
    int64_t lo = 0, hi = s->n;
    while (lo < hi) {
        int64_t mid = (lo + hi) >> 1;
        if (s->data[mid] < v) lo = mid + 1; else hi = mid;
    }
    if (lo < s->n && s->data[lo] == v) return RT_OK;
    if (s->n == s->cap) {
        int64_t ncap = s->cap ? s->cap * 2 : 16;
        int64_t* nd = (int64_t*)realloc(s->data, (size_t)ncap * sizeof(int64_t));
        if (!nd) return RT_ENOMEM;
        s->data = nd; s->cap = ncap;
    }
    memmove(s->data + lo + 1, s->data + lo,
            (size_t)(s->n - lo) * sizeof(int64_t));
    s->data[lo] = v;
    s->n += 1;
    return RT_OK;
}

/* ------------------------------------------------------------------ */
/* rt_lexperm — LexBucketPermutation: histogram + prefix sum, lookups  */
/* served by advancing per-bucket fill pointers with automatic rewind  */
/* after each complete pass (multi-pass unfused inspectors).           */
typedef struct {
    int64_t nb;
    int64_t* counts;   /* nb + 1 */
    int64_t* starts;   /* nb + 1 */
    int64_t* fill;     /* nb + 1 */
    int64_t total, served;
    int finalized;
} rt_lexperm;

RT_API int rt_lexperm_init(rt_lexperm* p, int64_t nb);
RT_API void rt_lexperm_free(rt_lexperm* p);
RT_API int rt_lexperm_finalize(rt_lexperm* p);

static inline int rt_lexperm_insert(rt_lexperm* p, int64_t bucket) {
    if (bucket < -1 || bucket >= p->nb) return RT_EKEY;
    p->counts[bucket + 1] += 1;
    p->total += 1;
    p->finalized = 0;
    return RT_OK;
}

static inline int rt_lexperm_lookup(rt_lexperm* p, int64_t bucket, int64_t* out) {
    int rc;
    int64_t b = bucket;
    if (!p->finalized) { rc = rt_lexperm_finalize(p); if (rc) return rc; }
    if (b == -1) b = p->nb;  /* Python's fill[-1] */
    if (b < 0 || b > p->nb) return RT_EKEY;
    *out = p->fill[b];
    p->fill[b] += 1;
    p->served += 1;
    if (p->served == p->total) {
        memcpy(p->fill, p->starts, (size_t)(p->nb + 1) * sizeof(int64_t));
        p->served = 0;
    }
    return RT_OK;
}

/* ------------------------------------------------------------------ */
/* rt_olist — OrderedList: append each inserted tuple's key words (and */
/* its coordinates, when only they tell duplicates apart), then        */
/* finalize with a stable sort into rank[i], the sorted position of    */
/* the i-th insert.  Every lookup replays the insert's iteration       */
/* (repro.spf.replay), so the n-th lookup of a pass reads rank[n]; the */
/* cursor rewinds after each complete pass.  Duplicate coordinate      */
/* tuples take the rank of their last occurrence in sorted order;      */
/* unique=1 collapses equal keys onto one rank.  No key (keylen 0)     */
/* keeps insertion order.                                              */
typedef struct {
    int64_t arity, keylen;
    int unique, injective;
    int64_t n, cap;
    int64_t* keys;       /* n * keylen */
    int64_t* coords;     /* n * arity, kept for non-injective keys only */
    int64_t* range;      /* keylen declared exclusive bounds, 0 = none */
    int64_t* rank;       /* per insert, once finalized */
    int64_t cursor, distinct;
    int finalized;
} rt_olist;

RT_API void rt_olist_free(rt_olist* o);
RT_API int rt_olist_init(
    rt_olist* o, int64_t arity, int64_t keylen, int unique, int injective,
    const int64_t* range);
RT_API int rt_olist_finalize(rt_olist* o);
RT_API int rt_olist_len(rt_olist* o, int64_t* out);

static inline int rt_olist_push(rt_olist* o, const int64_t* c, const int64_t* k) {
    int keep = !o->unique && !o->injective;
    int64_t i;
    if (o->finalized) return RT_ESTATE;
    if (o->n == o->cap) {
        int64_t ncap = o->cap ? o->cap * 2 : 16;
        /* At least one word per item: realloc(p, 0) would free p. */
        int64_t* nk = (int64_t*)realloc(
            o->keys, (size_t)(ncap * (o->keylen ? o->keylen : 1))
                     * sizeof(int64_t));
        if (!nk) return RT_ENOMEM;
        o->keys = nk;
        if (keep) {
            int64_t* nc = (int64_t*)realloc(
                o->coords, (size_t)(ncap * o->arity) * sizeof(int64_t));
            if (!nc) return RT_ENOMEM;
            o->coords = nc;
        }
        o->cap = ncap;
    }
    for (i = 0; i < o->keylen; i++) o->keys[o->n * o->keylen + i] = k[i];
    if (keep)
        for (i = 0; i < o->arity; i++) o->coords[o->n * o->arity + i] = c[i];
    o->n += 1;
    return RT_OK;
}

static inline int rt_olist_rank(rt_olist* o, int64_t* out) {
    int rc;
    if (!o->finalized) { rc = rt_olist_finalize(o); if (rc) return rc; }
    if (o->n == 0) return RT_EKEY;
    *out = o->rank[o->cursor];
    if (++o->cursor == o->n) o->cursor = 0;
    return RT_OK;
}
"""

RUNTIME_C = r"""
RT_API int rt_alloc_i64(int64_t n, int64_t** out, int64_t* len_out) {
    if (n < 0) n = 0;
    free(*out);
    *out = (int64_t*)calloc((size_t)(n > 0 ? n : 1), sizeof(int64_t));
    *len_out = n;
    return *out ? RT_OK : RT_ENOMEM;
}
RT_API int rt_alloc_f64(int64_t n, double** out, int64_t* len_out) {
    if (n < 0) n = 0;
    free(*out);
    *out = (double*)calloc((size_t)(n > 0 ? n : 1), sizeof(double));
    *len_out = n;
    return *out ? RT_OK : RT_ENOMEM;
}
RT_API int rt_copy_i64(
    const int64_t* src, int64_t n, int64_t** out, int64_t* len_out
) {
    int rc = rt_alloc_i64(n, out, len_out);
    if (rc != RT_OK) return rc;
    if (n > 0) memcpy(*out, src, (size_t)n * sizeof(int64_t));
    return RT_OK;
}

RT_API void rt_iset_init(rt_iset* s) { s->data = NULL; s->n = 0; s->cap = 0; }
RT_API void rt_iset_free(rt_iset* s) { free(s->data); s->data = NULL; s->n = 0; s->cap = 0; }
RT_API int rt_iset_to_array(rt_iset* s, int64_t** out, int64_t* len_out) {
    return rt_copy_i64(s->data, s->n, out, len_out);
}

RT_API int rt_lexperm_init(rt_lexperm* p, int64_t nb) {
    if (nb < 1) return RT_EVALUE;
    free(p->counts); free(p->starts); free(p->fill);
    p->nb = nb;
    p->counts = (int64_t*)calloc((size_t)(nb + 1), sizeof(int64_t));
    p->starts = NULL; p->fill = NULL;
    p->total = 0; p->served = 0; p->finalized = 0;
    return p->counts ? RT_OK : RT_ENOMEM;
}
RT_API void rt_lexperm_free(rt_lexperm* p) {
    free(p->counts); free(p->starts); free(p->fill);
    p->counts = NULL; p->starts = NULL; p->fill = NULL;
}

RT_API int rt_lexperm_finalize(rt_lexperm* p) {
    int64_t b;
    free(p->starts); free(p->fill);
    p->starts = (int64_t*)malloc((size_t)(p->nb + 1) * sizeof(int64_t));
    p->fill = (int64_t*)malloc((size_t)(p->nb + 1) * sizeof(int64_t));
    if (!p->starts || !p->fill) return RT_ENOMEM;
    memcpy(p->starts, p->counts, (size_t)(p->nb + 1) * sizeof(int64_t));
    for (b = 0; b < p->nb; b++) p->starts[b + 1] += p->starts[b];
    memcpy(p->fill, p->starts, (size_t)(p->nb + 1) * sizeof(int64_t));
    p->served = 0;
    p->finalized = 1;
    return RT_OK;
}

/* ------------------------------------------------------------------ */
/* Stable LSD sorts of an index vector by columns of a row-major int64 */
/* table (`stride` words a row), the first column most significant.    */

/* A counting pass allocates its column's range, so a column counts    */
/* only while the range is at most RT_COUNT_CAP(n) for n rows; a wider */
/* one takes the radix path.  Measured with gcc -O2 on a 2-core x86-64 */
/* VM, one column of uniform random keys, best of 7: at n = 199k,      */
/* counting took 0.64-0.91x the radix time up to a range of 1.3n,      */
/* 1.03x at 2.6n and 1.8x at 10.5n; at n = 10k it still won at 2**16   */
/* (6.5n) and lost from 2**18 (26n).  The cap also keeps the count     */
/* array no larger than the rank array or the radix path's own 2**16   */
/* counters.                                                           */
#define RT_COUNT_CAP(n) ((n) > 65536 ? (n) : 65536)

static void rt_swap(int64_t** a, int64_t** b) {
    int64_t* t = *a; *a = *b; *b = t;
}

static int rt_same(const int64_t* a, const int64_t* b, int64_t len) {
    int64_t i;
    for (i = 0; i < len; i++) if (a[i] != b[i]) return 0;
    return 1;
}

/* One stable counting pass: order by digit[] values in [0, range). */
static void rt_count_pass(
    const int64_t* digit, int64_t range, int64_t n,
    int64_t** order, int64_t** tmp, int64_t* cnt
) {
    int64_t i, run = 0;
    memset(cnt, 0, (size_t)range * sizeof(int64_t));
    for (i = 0; i < n; i++) cnt[digit[i]] += 1;
    for (i = 0; i < range; i++) {
        int64_t c = cnt[i];
        cnt[i] = run;
        run += c;
    }
    for (i = 0; i < n; i++) (*tmp)[cnt[digit[(*order)[i]]]++] = (*order)[i];
    rt_swap(order, tmp);
}

/* Stable sort of the items 0..n-1 into *order by ncols columns.      */
/* Column c takes one counting pass when range (may be NULL) has       */
/* range[c] > 0, else one per 16-bit digit that varies, the sign bit   */
/* flipped so that unsigned digit order is signed order.  *tmp is left */
/* free.                                                               */
static int rt_sort_rows(
    const int64_t* table, int64_t stride, int64_t ncols,
    const int64_t* range, int64_t n, int64_t** order, int64_t** tmp
) {
    int64_t c, i, words = 65536;
    int64_t *cnt, *digit;
    int shift;
    for (c = 0; c < ncols; c++)
        if (range && range[c] > words) words = range[c];
    cnt = (int64_t*)malloc((size_t)words * sizeof(int64_t));
    digit = (int64_t*)malloc((size_t)(n > 0 ? n : 1) * sizeof(int64_t));
    if (!cnt || !digit) {
        free(cnt); free(digit);
        return RT_ENOMEM;
    }
    for (i = 0; i < n; i++) (*order)[i] = i;
    for (c = ncols - 1; c >= 0; c--) {
        const int64_t* col = table + c;
        int64_t r = range ? range[c] : 0;
        uint64_t diff = 0;
        for (i = 1; r <= 0 && i < n; i++)
            diff |= (uint64_t)(col[i * stride] ^ col[0]);
        for (shift = 0; shift < 64; shift += 16) {
            if (r > 0 ? shift > 0 : ((diff >> shift) & 0xFFFFULL) == 0)
                continue;
            for (i = 0; i < n; i++)
                digit[i] = r > 0 ? col[i * stride]
                    : (int64_t)((((uint64_t)col[i * stride]
                                  ^ 0x8000000000000000ULL) >> shift)
                                & 0xFFFFULL);
            rt_count_pass(digit, r > 0 ? r : 65536, n, order, tmp, cnt);
        }
    }
    free(cnt); free(digit);
    return RT_OK;
}

RT_API void rt_olist_free(rt_olist* o) {
    free(o->keys); free(o->coords); free(o->range); free(o->rank);
    o->keys = NULL; o->coords = NULL; o->range = NULL; o->rank = NULL;
}

RT_API int rt_olist_init(
    rt_olist* o, int64_t arity, int64_t keylen, int unique, int injective,
    const int64_t* range
) {
    rt_olist_free(o);
    memset(o, 0, sizeof(*o));
    o->arity = arity;
    o->keylen = keylen;
    o->unique = unique;
    o->injective = injective;
    o->range = (int64_t*)calloc((size_t)(keylen ? keylen : 1),
                                sizeof(int64_t));
    if (!o->range) return RT_ENOMEM;
    if (keylen) memcpy(o->range, range, (size_t)keylen * sizeof(int64_t));
    return RT_OK;
}

/* Along the sorted order, give each run of equal rows (w words) the   */
/* rank of its last member.  Ranks ascend within a run, so every copy  */
/* of a tuple takes the rank of its last occurrence in sorted order.   */
static void rt_last_of_runs(
    const int64_t* rows, int64_t w, const int64_t* order, int64_t n,
    int64_t* rank
) {
    int64_t p, last = n - 1;
    for (p = n - 2; p >= 0; p--) {
        if (!rt_same(rows + order[p] * w, rows + order[p + 1] * w, w))
            last = p;
        rank[order[p]] = rank[order[last]];
    }
}

RT_API int rt_olist_finalize(rt_olist* o) {
    int64_t n = o->n, kl = o->keylen, m = n > 0 ? n : 1, p, c;
    int64_t *order, *tmp, *range;
    int rc = RT_OK;
    if (o->finalized) return RT_OK;
    order = (int64_t*)malloc((size_t)m * sizeof(int64_t));
    tmp = (int64_t*)malloc((size_t)m * sizeof(int64_t));
    range = (int64_t*)calloc((size_t)(kl ? kl : 1), sizeof(int64_t));
    if (!order || !tmp || !range) { rc = RT_ENOMEM; goto done; }
    /* Count a column only while its range is small enough to allocate */
    /* and holds every key: one key outside (possible when validation  */
    /* is off) sends the whole list to the radix path.                  */
    for (c = 0; c < kl; c++) {
        uint64_t r = (uint64_t)o->range[c];
        if (r == 0 || r > (uint64_t)RT_COUNT_CAP(n)) continue;
        for (p = 0; p < n && (uint64_t)o->keys[p * kl + c] < r; p++) {}
        if (p < n) {
            memset(range, 0, (size_t)kl * sizeof(int64_t));
            break;
        }
        range[c] = (int64_t)r;
    }
    rc = rt_sort_rows(o->keys, kl, kl, range, n, &order, &tmp);
    if (rc) goto done;
    /* The sort leaves tmp free; it becomes the rank array. */
    free(o->rank);
    o->rank = tmp;
    tmp = NULL;
    if (o->unique) {
        o->distinct = n ? 1 : 0;
        for (p = 0; p < n; p++) {
            if (p && !rt_same(o->keys + order[p - 1] * kl,
                              o->keys + order[p] * kl, kl))
                o->distinct += 1;
            o->rank[order[p]] = o->distinct - 1;
        }
    } else {
        /* Equal tuples are adjacent in sorted order when the key is    */
        /* injective; otherwise a sort by the coordinates makes them so. */
        const int64_t* rows = o->keys;
        int64_t w = kl;
        for (p = 0; p < n; p++) o->rank[order[p]] = p;
        if (!o->injective) {
            tmp = (int64_t*)malloc((size_t)m * sizeof(int64_t));
            if (!tmp) { rc = RT_ENOMEM; goto done; }
            rc = rt_sort_rows(o->coords, o->arity, o->arity, NULL, n,
                              &order, &tmp);
            if (rc) goto done;
            rows = o->coords;
            w = o->arity;
        }
        rt_last_of_runs(rows, w, order, n, o->rank);
    }
    free(o->keys); free(o->coords);
    o->keys = NULL; o->coords = NULL;
    o->cursor = 0;
    o->finalized = 1;
done:
    free(order); free(tmp); free(range);
    return rc;
}

RT_API int rt_olist_len(rt_olist* o, int64_t* out) {
    if (o->unique) {
        int rc;
        if (!o->finalized) { rc = rt_olist_finalize(o); if (rc) return rc; }
        *out = o->distinct;
        return RT_OK;
    }
    *out = o->n;
    return RT_OK;
}

/* The one runtime symbol every inspector library exports: outputs are */
/* released through it.                                                */
__attribute__((visibility("default"))) void repro_free(void* p) { free(p); }
"""


def runtime_source() -> str:
    """The runtime object's translation unit: the header, then its routines."""
    return RUNTIME_H + RUNTIME_C


def _v(name: str) -> str:
    """Mangle a generated-code name into the C local namespace."""
    return f"v_{name}"


def _s(name: str) -> str:
    """Mangle a permutation-object name into its C struct variable."""
    return f"s_{name}"


#: The emitter's kind of a float64 scalar, and its manifest return kind.
FSCALAR = "fscalar"

_MORTON = {2: "rt_morton2", 3: "rt_morton3"}
_COMBINE = {"max": "rt_max2", "min": "rt_min2"}


@dataclass
class _ObjInfo:
    kind: str  # "olist" | "iset" | "lexperm"
    arity: int = 0
    which: int = 0  # lexperm bucket coordinate


class _CExprs(ExprPrinter):
    """C rendering: mangled names, Python floor semantics, pointer access.

    With ``env`` set (an ordered-list key function) variables are the key
    function's coordinate slots instead of locals.
    """

    nest_bounds = True

    def __init__(self, em: "_Emitter", env: dict[str, str] | None = None):
        super().__init__(em.symtab)
        self.em = em
        self.env = env

    def atom(self, atom) -> str:
        if isinstance(atom, (Var, Sym)):
            if self.env is None:
                return _v(atom.name)
            if atom.name not in self.env:
                raise self.em.err(f"free variable {atom.name!r} in a sort key")
            return self.env[atom.name]
        if isinstance(atom, FloorDiv):
            return f"RT_FDIV({self.expr(atom.numer)}, {atom.denom})"
        if isinstance(atom, Mod):
            return f"RT_FMOD({self.expr(atom.numer)}, {atom.denom})"
        if isinstance(atom, UFCall):
            kind = self.em.kind.get(atom.name, self.symtab.kind_of(atom.name))
            if kind not in ("array", "iset"):
                raise self.em.err(
                    f"cannot inline {kind} call {atom.name!r} in an expression"
                )
            if len(atom.args) != 1:
                raise self.em.err(f"multi-index access {atom}")
            base = _v(atom.name) if kind == "array" else f"{_s(atom.name)}.data"
            return f"{base}[{self.expr(atom.args[0])}]"
        return super().atom(atom)


class _Emitter:
    """Single-use translator: one lowered Program → one C function."""

    def __init__(self, program, name, params, returns, symtab):
        self.program = program
        self.name = name
        self.params = list(params)
        self.returns = list(returns)
        self.symtab: SymbolTable = symtab
        self.array_params = [p for p in self.params if p in symtab.arrays]
        self.scalar_params = [
            p for p in self.params if p not in symtab.arrays
        ]
        #: Current classification of every name, updated in program order
        #: (an OrderedSet local rebinds to an array when materialized).
        self.kind: dict[str, str] = {}
        for p in self.array_params:
            self.kind[p] = "array"
        for p in self.scalar_params:
            self.kind[p] = FSCALAR if p in symtab.floats else "scalar"
        self.arr_type: dict[str, str] = {
            p: (F8 if p in symtab.floats else I8) for p in self.array_params
        }
        self.scalars: list[str] = []  # declaration order
        self.fscalars: list[str] = []
        #: Parameter arrays the program writes or returns: each is copied
        #: into a local buffer at entry, which the program owns.
        written = st.targets(program)
        self.owned = [
            p for p in self.array_params if p in written or p in self.returns
        ]
        self.local_arrays: list[str] = list(self.owned)
        self.objects: dict[str, _ObjInfo] = {}
        self.body: list[str] = []
        self.helpers: list[str] = []  # per-object key/insert functions
        self.fail_used = False
        self.e = _CExprs(self)

    # -- small utilities ------------------------------------------------
    def err(self, why: str) -> st.UnsupportedStatement:
        return st.UnsupportedStatement(f"C lowering of {self.name}: {why}")

    def line(self, ind: int, text: str) -> None:
        self.body.append("    " * ind + text)

    def check(self, ind: int, call: str) -> None:
        self.fail_used = True
        self.line(ind, f"RT_CK({call});")

    def declare_scalar(self, name: str, kind: str = "scalar") -> None:
        existing = self.kind.get(name)
        if existing is None:
            self.kind[name] = kind
            (self.fscalars if kind == FSCALAR else self.scalars).append(name)
        elif existing != kind:
            raise self.err(f"{name!r} used as both {existing} and {kind}")

    def declare_array(self, name: str, dtype: str) -> None:
        if name in self.array_params:
            raise self.err(f"parameter array {name!r} reassigned")
        if name not in self.local_arrays:
            self.local_arrays.append(name)
        self.kind[name] = "array"
        self.arr_type[name] = dtype

    def declare_object(self, name: str, info: _ObjInfo) -> None:
        if name in self.objects:
            raise self.err(f"object {name!r} constructed twice")
        self.objects[name] = info
        self.kind[name] = info.kind

    def slot(self, array: str, index) -> str:
        """``array[index]`` over a local or owned int64/float64 array, or
        a scalar without an index."""
        if not index and self.kind.get(array) in ("scalar", FSCALAR):
            return _v(array)
        if self.kind.get(array) != "array" or len(index) != 1:
            raise self.err(f"store into {array!r} with {len(index)} indices")
        return f"{_v(array)}[{self.e.expr(index[0])}]"

    def sized(self, name: str) -> tuple[str, str]:
        """(data pointer, length) of an array or ordered set."""
        kind = self.kind.get(name)
        if kind == "array":
            return _v(name), f"{_v(name)}__len"
        if kind == "iset":
            return f"{_s(name)}.data", f"{_s(name)}.n"
        raise self.err(f"{name!r} is a {kind or 'missing'} value, not an array")

    # -- node translation ------------------------------------------------
    def node(self, node, ind: int) -> None:
        if isinstance(node, Program):
            for child in node.body:
                self.node(child, ind)
        elif isinstance(node, Comment):
            self.line(ind, f"/* {node.text} */")
        elif isinstance(node, ForLoop):
            self.declare_scalar(node.var)
            lb = self.e.bound(node.lowers, "rt_max2")
            ub = self.e.bound(node.uppers, "rt_min2")
            var = _v(node.var)
            self.line(
                ind, f"for ({var} = {lb}; {var} <= {ub}; {var}++) {{"
            )
            for child in node.body:
                self.node(child, ind + 1)
            self.line(ind, "}")
        elif isinstance(node, Guard):
            conds = " && ".join(
                f"({self.e.constraint(c)})" for c in node.constraints
            )
            self.line(ind, f"if ({conds}) {{")
            for child in node.body:
                self.node(child, ind + 1)
            self.line(ind, "}")
        elif isinstance(node, LetEq):
            self.let_eq(node, ind)
        elif isinstance(node, st.Statement):
            self.statement(node, ind)
        else:
            raise self.err(f"cannot print {node!r}")

    def let_eq(self, node: LetEq, ind: int) -> None:
        self.declare_scalar(node.var)
        if isinstance(node, RankLookup):
            self.rank_lookup(node, ind)
        else:
            self.line(ind, f"{_v(node.var)} = {self.e.expr(node.expr)};")

    def rank_lookup(self, node: RankLookup, ind: int) -> None:
        """A replayed lookup: the next rank in insertion order."""
        info, args = self.objects.get(node.obj), node.call.args
        if info is None or len(args) != info.arity:
            raise self.err(f"{node!r} does not match its object")
        obj, var = _s(node.obj), _v(node.var)
        if info.kind == "lexperm":
            bucket = self.e.expr(args[info.which])
            self.check(ind, f"rt_lexperm_lookup(&{obj}, {bucket}, &{var})")
        else:
            self.check(ind, f"rt_olist_rank(&{obj}, &{var})")

    # -- statements -------------------------------------------------------
    def statement(self, node: st.Statement, ind: int) -> None:
        e = self.e.expr
        if isinstance(node, st.Alloc):
            if node.size is None:
                self.declare_scalar(
                    node.name, FSCALAR if node.floating else "scalar"
                )
                fill = (
                    repr(float(node.fill.const)) if node.floating
                    else e(node.fill)
                )
                self.line(ind, f"{_v(node.name)} = {fill};")
                return
            size = e(node.size)
            dtype = F8 if node.floating else I8
            self.declare_array(node.name, dtype)
            alloc = "rt_alloc_f64" if node.floating else "rt_alloc_i64"
            v = _v(node.name)
            self.check(ind, f"{alloc}({size}, &{v}, &{v}__len)")
            if not node.fill.is_zero():
                if node.floating:
                    raise self.err(f"{node!r} fills a float array")
                self.line(
                    ind, f"{{ int64_t t__; for (t__ = 0; t__ < {v}__len; "
                    f"t__++) {v}[t__] = {e(node.fill)}; }}",
                )
        elif isinstance(node, st.ArrayCopy):
            if self.kind.get(node.source) != "array" or (
                self.arr_type.get(node.source) != I8
            ):
                raise self.err(f"{node!r} copies a non-int64-array")
            self.declare_array(node.name, I8)
            src, dst = _v(node.source), _v(node.name)
            self.check(
                ind, f"rt_copy_i64({src}, {src}__len, &{dst}, &{dst}__len)"
            )
        elif isinstance(node, st.Histogram):
            self.line(ind, f"{self.slot(node.array, (node.bucket + 1,))} += 1;")
        elif isinstance(node, st.Scatter):
            slot = self.slot(node.array, node.index)
            self.line(ind, f"{slot} = {e(node.value)};")
        elif isinstance(node, st.Reduce):
            slot = self.slot(node.array, node.index)
            self.line(
                ind,
                f"{slot} = {_COMBINE[node.op]}({slot}, {e(node.value)});",
            )
        elif isinstance(node, st.Accumulate):
            slot = self.slot(node.array, node.index)
            product = " * ".join(map(self.e.factor, node.factors))
            self.line(ind, f"{slot} += {product};")
        elif isinstance(node, st.PrefixFix):
            cur = self.slot(node.array, (node.index,))
            prev = self.slot(node.array, (node.index - 1,))
            value = (
                f"{cur} + {prev}" if node.op == "+"
                else f"{_COMBINE[node.op]}({cur}, {prev})"
            )
            self.line(ind, f"{cur} = {value};")
        elif isinstance(node, st.BucketFill):
            self.declare_scalar(node.var)
            slot = self.slot(node.fill, (node.bucket,))
            self.line(ind, f"{_v(node.var)} = {slot};")
            self.line(ind, f"{slot} = {_v(node.var)} + 1;")
        elif isinstance(node, st.NewOrderedList):
            self.new_olist(node, ind)
        elif isinstance(node, st.NewBucketPermutation):
            self.declare_object(
                node.name,
                _ObjInfo("lexperm", arity=node.arity, which=node.which),
            )
            self.check(ind, f"rt_lexperm_init(&{_s(node.name)}, {e(node.nbuckets)})")
        elif isinstance(node, st.NewOrderedSet):
            self.declare_object(node.name, _ObjInfo("iset", arity=1))
            self.line(ind, f"rt_iset_init(&{_s(node.name)});")
        elif isinstance(node, st.Insert):
            self.insert(node, ind)
        elif isinstance(node, st.Length):
            self.length(node, ind)
        elif isinstance(node, st.Materialize):
            if self.kind.get(node.name) != "iset":
                raise self.err(f"{node!r} of a non-set")
            self.declare_array(node.name, I8)
            v = _v(node.name)
            self.check(
                ind, f"rt_iset_to_array(&{_s(node.name)}, &{v}, &{v}__len)"
            )
        elif isinstance(node, st.BinarySearch):
            self.declare_scalar(node.var)
            data, length = self.sized(node.array)
            var = _v(node.var)
            self.line(
                ind, f"{var} = rt_bsearch({data}, {length}, {e(node.value)});"
            )
            self.line(ind, f"if ({var} >= 0) {{")
            self.statement(node.stmt, ind + 1)
            self.line(ind, "}")
        else:
            raise self.err(f"cannot print {node!r}")

    def new_olist(self, node: st.NewOrderedList, ind: int) -> None:
        """Declare an ordered list plus its key and insert helpers.

        A Morton component fills two key words, high word first; any
        other component fills one word and passes its declared range.
        """
        if node.unique and not node.key:
            raise self.err(f"{node!r} collapses ties without a key")
        arity = len(node.params)
        keys = _CExprs(self, {p: f"c[{i}]" for i, p in enumerate(node.params)})
        v = _v(node.name)
        lines = [f"static int rt_key_{v}(const int64_t* c, int64_t* k) {{"]
        ranges: list[str] = []
        fallible = False
        for key, bound in zip(node.key, node.ranges or [None] * len(node.key)):
            call = st.morton_call(key)
            if call is not None and len(call.args) in _MORTON:
                args = ", ".join(keys.expr(a) for a in call.args)
                fallible = True
                lines.append(
                    f"    rc = {_MORTON[len(call.args)]}({args}, "
                    f"&k[{len(ranges)}]); if (rc) return rc;"
                )
                ranges += ["0", "0"]
            else:
                lines.append(f"    k[{len(ranges)}] = {keys.expr(key)};")
                ranges.append(
                    "0" if bound is None else self.range_of(node, bound)
                )
        if fallible:
            lines.insert(1, "    int rc;")
        keylen = len(ranges)
        self.declare_object(node.name, _ObjInfo("olist", arity))
        lines += ["    return RT_OK;", "}"]
        cargs = ", ".join(f"int64_t a{i}" for i in range(arity))
        coords = ", ".join(f"a{i}" for i in range(arity))
        lines += [
            f"static int rt_insert_{v}(rt_olist* o, {cargs}) {{",
            f"    int64_t c[{arity}] = {{{coords}}};",
            f"    int64_t k[{max(keylen, 1)}];",
            f"    int rc = rt_key_{v}(c, k);",
            "    if (rc) return rc;",
            "    return rt_olist_push(o, c, k);",
            "}",
        ]
        self.helpers.append("\n".join(lines))
        self.line(ind, "{")
        words = ", ".join(ranges) or "0"
        self.line(ind + 1, f"const int64_t r__[] = {{{words}}};")
        self.check(
            ind + 1,
            f"rt_olist_init(&{_s(node.name)}, {arity}, {keylen}, "
            f"{int(node.unique)}, {int(node.injective)}, r__)",
        )
        self.line(ind, "}")

    def range_of(self, node: st.NewOrderedList, bound) -> str:
        """A declared key range, over scalars already in scope."""
        names = bound.var_names() | bound.sym_names() | bound.uf_names()
        if any(self.kind.get(n) != "scalar" for n in names):
            raise self.err(f"{node!r} declares a range over non-scalars")
        return self.e.expr(bound)

    def insert(self, node: st.Insert, ind: int) -> None:
        info = self.objects.get(node.obj)
        if info is None or len(node.args) != info.arity:
            raise self.err(f"{node!r} does not match its object")
        args = [self.e.expr(a) for a in node.args]
        obj = _s(node.obj)
        if info.kind == "iset":
            self.check(ind, f"rt_iset_insert(&{obj}, {args[0]})")
        elif info.kind == "lexperm":
            self.check(ind, f"rt_lexperm_insert(&{obj}, {args[info.which]})")
        else:
            self.check(ind, f"rt_insert_{_v(node.obj)}(&{obj}, {', '.join(args)})")

    def length(self, node: st.Length, ind: int) -> None:
        self.declare_scalar(node.name)
        kind, target = self.kind.get(node.obj), _v(node.name)
        if kind == "olist":
            self.check(ind, f"rt_olist_len(&{_s(node.obj)}, &{target})")
        elif kind == "lexperm":
            self.line(ind, f"{target} = {_s(node.obj)}.total;")
        else:
            self.line(ind, f"{target} = {self.sized(node.obj)[1]};")

    # -- assembly ---------------------------------------------------------
    def run(self) -> CEmitted:
        for name in self.returns:
            if name in self.scalar_params:
                raise self.err(f"return {name!r} aliases a parameter")
        self.node(self.program, 1)

        decls: list[str] = []
        entry: list[str] = []  # after every declaration: cleanup frees them
        for i, p in enumerate(self.array_params):
            floating = self.arr_type[p] == F8
            ctype = "double" if floating else "int64_t"
            if p in self.owned:  # declared with the local arrays
                v = _v(p)
                alloc = "rt_alloc_f64" if floating else "rt_alloc_i64"
                self.fail_used = True
                entry += [
                    f"    RT_CK({alloc}((int64_t)lens[{i}], &{v}, "
                    f"&{v}__len));",
                    f"    if ({v}__len > 0) memcpy({v}, arrs[{i}], "
                    f"(size_t){v}__len * sizeof({ctype}));",
                ]
                continue
            decls.append(
                f"    const {ctype}* {_v(p)} = (const {ctype}*)arrs[{i}];"
            )
            decls.append(f"    int64_t {_v(p)}__len = (int64_t)lens[{i}];")
            decls.append(f"    (void){_v(p)}__len;")
        for j, p in enumerate(self.scalar_params):
            if p in self.symtab.floats:
                decls.append(f"    double {_v(p)};")
                decls.append(
                    f"    memcpy(&{_v(p)}, &scalars[{j}], sizeof(double));"
                )
            else:
                decls.append(f"    int64_t {_v(p)} = (int64_t)scalars[{j}];")
            decls.append(f"    (void){_v(p)};")
        for name in self.local_arrays:
            ctype = "double" if self.arr_type[name] == F8 else "int64_t"
            decls.append(f"    {ctype}* {_v(name)} = NULL;")
            decls.append(f"    int64_t {_v(name)}__len = 0;")
        for name, info in self.objects.items():
            if info.kind == "olist":
                decls.append(f"    rt_olist {_s(name)};")
                decls.append(f"    memset(&{_s(name)}, 0, sizeof(rt_olist));")
            elif info.kind == "iset":
                decls.append(f"    rt_iset {_s(name)};")
                decls.append(f"    rt_iset_init(&{_s(name)});")
            else:
                decls.append(f"    rt_lexperm {_s(name)};")
                decls.append(
                    f"    memset(&{_s(name)}, 0, sizeof(rt_lexperm));"
                )
        for ctype, names in (
            ("int64_t", self.scalars), ("double", self.fscalars)
        ):
            if names:
                joined = ", ".join(f"{_v(n)} = 0" for n in names)
                decls.append(f"    {ctype} {joined};")

        pack: list[str] = []
        manifest: list[tuple[str, str]] = []
        for i, name in enumerate(self.returns):
            kind = self.kind.get(name)
            if kind == "array":
                pack.append(f"    out[{i}].ptr = {_v(name)};")
                pack.append(
                    f"    out[{i}].len = (long long){_v(name)}__len;"
                )
                pack.append(f"    {_v(name)} = NULL;")
                manifest.append((name, self.arr_type[name]))
            elif kind == "scalar":
                pack.append(f"    out[{i}].ptr = NULL;")
                pack.append(f"    out[{i}].len = (long long){_v(name)};")
                manifest.append((name, "scalar"))
            elif kind == FSCALAR:
                pack.append(f"    out[{i}].ptr = NULL;")
                pack.append(
                    f"    memcpy(&out[{i}].len, &{_v(name)}, sizeof(double));"
                )
                manifest.append((name, FSCALAR))
            elif kind == "iset":
                # An OrderedSet returned without `to_list()` (the
                # unoptimized DIA path): materialize its sorted values.
                self.fail_used = True
                pack.append("    {")
                pack.append("        int64_t* p__ = NULL;")
                pack.append("        int64_t n__ = 0;")
                pack.append(
                    f"        RT_CK(rt_copy_i64({_s(name)}.data, "
                    f"{_s(name)}.n, &p__, &n__));"
                )
                pack.append(f"        out[{i}].ptr = p__;")
                pack.append(f"        out[{i}].len = (long long)n__;")
                pack.append("    }")
                manifest.append((name, I8))
            else:
                raise self.err(
                    f"return {name!r} is a {kind or 'missing'} value"
                )

        cleanup: list[str] = []
        for name in self.local_arrays:
            cleanup.append(f"    free({_v(name)});")
        for name, info in self.objects.items():
            if info.kind == "olist":
                cleanup.append(f"    rt_olist_free(&{_s(name)});")
            elif info.kind == "iset":
                cleanup.append(f"    rt_iset_free(&{_s(name)});")
            else:
                cleanup.append(f"    rt_lexperm_free(&{_s(name)});")

        lines = [
            f"/* native inspector: {self.name} */",
            RUNTIME_H,
        ]
        lines.extend(self.helpers)
        lines.append("")
        lines.append(
            "int repro_run(void** arrs, long long* lens, "
            "long long* scalars, rt_buf* out) {"
        )
        lines.append("    int rc = 0;")
        lines.append("    (void)arrs; (void)lens; (void)scalars;")
        lines.extend(decls)
        lines.extend(entry)
        lines.extend(self.body)
        lines.extend(pack)
        lines.append("    goto cleanup;")
        if self.fail_used:
            lines.append("fail:")
            lines.append("    ;")
        lines.append("cleanup:")
        lines.extend(cleanup)
        lines.append("    return rc;")
        lines.append("}")

        return CEmitted(
            c_source="\n".join(lines) + "\n",
            array_params=[(p, self.arr_type[p]) for p in self.array_params],
            scalar_params=list(self.scalar_params),
            float_scalars=tuple(
                j for j, p in enumerate(self.scalar_params)
                if p in self.symtab.floats
            ),
            returns=manifest,
        )


def emit_c(program, name, params, returns, symtab: SymbolTable) -> CEmitted:
    """Emit a compilable C99 translation unit for one lowered program.

    Marks the program's rank lookups in place (marking is idempotent).
    Raises :class:`~repro.spf.statements.UnsupportedStatement`, naming the
    statement, when the program uses a construct outside the closed
    statement set.
    """
    emitter = _Emitter(mark_rank_lookups(program), name, params, returns, symtab)
    return emitter.run()
