"""Native C99 emission of a lowered SPF program.

The display C printer (:class:`~repro.spf.codegen.printers.CPrinter`)
shows the paper's CodeGen+ style output around each statement's Python
form; this module is the printer the compiled backend actually builds
and runs:

* typed signatures — every inspector compiles to one exported entry
  point ``repro_run(arrs, lens, scalars, out)`` taking the input arrays
  (``int64``/``float64`` buffers), their lengths, the scalar symbolic
  constants, and an output-buffer table it fills in,
* a self-contained runtime prelude — the permutation structures
  (``OrderedList`` / ``OrderedSet`` / ``LexBucketPermutation``), Morton
  encodings, binary search, and floor-division helpers re-implemented in
  C with ``malloc``/``realloc`` growth, matching the Python runtime in
  :mod:`repro.runtime` element for element,
* UF calls lowered to array indexing, permutation lookups lowered to a
  hash-rank map built by a stable radix sort.

Statement bodies arrive as the typed kinds of
:mod:`repro.spf.statements`, one C rule each, with expressions rendered
through the shared :class:`~repro.spf.codegen.printers.ExprPrinter`.  A
statement outside the closed set (an opaque ``Raw`` body, a multi-index
array, a Morton key inside a larger expression) raises
:class:`~repro.spf.statements.UnsupportedStatement` at synthesis time,
naming the statement; there is no interpreted fallback.

Error protocol: ``repro_run`` returns 0 on success or an ``RT_E*`` code
the Python wrapper maps back onto the exception the scalar runtime
would have raised (``MemoryError``, ``KeyError``, ``ValueError``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir import FloorDiv, Mod, Sym, UFCall, Var
from .. import statements as st
from ..ast_nodes import Comment, ForLoop, Guard, LetEq, Program
from .printers import ExprPrinter, SymbolTable

#: Array dtype tags shared with the Python-side marshaller.
I8 = "i8"
F8 = "f8"


@dataclass
class CEmitted:
    """A compilable C translation unit plus its marshalling manifest."""

    c_source: str
    #: ``(name, "i8"|"f8")`` for every array parameter, in call order.
    array_params: list = field(default_factory=list)
    #: Scalar (symbolic constant) parameter names, in call order.
    scalar_params: list = field(default_factory=list)
    #: ``(name, "i8"|"f8"|"scalar")`` for every return, in return order.
    returns: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# The C runtime prelude.
#
# Every generated translation unit embeds this verbatim, so each compiled
# shared object is self-contained (no link-time coupling between cached
# artifacts and the package version that produced them).
# ---------------------------------------------------------------------------

RUNTIME_C = r"""
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct { void* ptr; long long len; } rt_buf;

#define RT_OK      0
#define RT_ENOMEM  1   /* -> MemoryError */
#define RT_EKEY    2   /* -> KeyError / IndexError */
#define RT_EVALUE  3   /* -> ValueError (negative Morton coordinate) */
#define RT_ERANGE  4   /* -> OverflowError (key exceeds 62 bits) */
#define RT_ESTATE  5   /* -> RuntimeError (protocol violation) */

#define RT_CK(x) do { rc = (x); if (rc != 0) goto fail; } while (0)

/* Python floor division / modulo semantics for negative operands. */
static int64_t rt_fdiv(int64_t a, int64_t b) {
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0))) q -= 1;
    return q;
}
static int64_t rt_fmod(int64_t a, int64_t b) {
    int64_t r = a % b;
    if (r != 0 && ((r < 0) != (b < 0))) r += b;
    return r;
}
#define RT_FDIV(a, b) rt_fdiv((a), (b))
#define RT_FMOD(a, b) rt_fmod((a), (b))
static int64_t rt_max2(int64_t a, int64_t b) { return a > b ? a : b; }
static int64_t rt_min2(int64_t a, int64_t b) { return a < b ? a : b; }

/* ------------------------------------------------------------------ */
/* Allocation helpers: Python's `[0] * n` yields [] for n < 0, and the */
/* 1-byte floor keeps output pointers non-NULL for len-0 buffers.      */
static int rt_alloc_i64(int64_t n, int64_t** out, int64_t* len_out) {
    if (n < 0) n = 0;
    free(*out);
    *out = (int64_t*)calloc((size_t)(n > 0 ? n : 1), sizeof(int64_t));
    *len_out = n;
    return *out ? RT_OK : RT_ENOMEM;
}
static int rt_alloc_f64(int64_t n, double** out, int64_t* len_out) {
    if (n < 0) n = 0;
    free(*out);
    *out = (double*)calloc((size_t)(n > 0 ? n : 1), sizeof(double));
    *len_out = n;
    return *out ? RT_OK : RT_ENOMEM;
}
static int rt_copy_i64(
    const int64_t* src, int64_t n, int64_t** out, int64_t* len_out
) {
    int rc = rt_alloc_i64(n, out, len_out);
    if (rc != RT_OK) return rc;
    if (n > 0) memcpy(*out, src, (size_t)n * sizeof(int64_t));
    return RT_OK;
}

/* Binary search in a sorted int64 array; -1 when absent (BSEARCH). */
static int64_t rt_bsearch(const int64_t* a, int64_t n, int64_t v) {
    int64_t lo = 0, hi = n - 1;
    while (lo <= hi) {
        int64_t mid = (lo + hi) >> 1;
        int64_t entry = a[mid];
        if (entry == v) return mid;
        if (entry < v) lo = mid + 1; else hi = mid - 1;
    }
    return -1;
}

/* Morton (Z-order) keys: first coordinate takes the low bit, matching */
/* repro.runtime.morton.  Coordinates above the 62-bit key budget fall */
/* back to the arbitrary-precision Python path via RT_ERANGE.          */
static int rt_morton2(int64_t i, int64_t j, int64_t* out) {
    uint64_t x, y, key = 0;
    int shift = 0;
    if (i < 0 || j < 0) return RT_EVALUE;
    if (i >= ((int64_t)1 << 31) || j >= ((int64_t)1 << 31)) return RT_ERANGE;
    x = (uint64_t)i; y = (uint64_t)j;
    while (x || y) {
        key |= (x & 1u) << shift;
        key |= (y & 1u) << (shift + 1);
        x >>= 1; y >>= 1; shift += 2;
    }
    *out = (int64_t)key;
    return RT_OK;
}
static int rt_morton3(int64_t i, int64_t j, int64_t k, int64_t* out) {
    uint64_t x, y, z, key = 0;
    int shift = 0;
    if (i < 0 || j < 0 || k < 0) return RT_EVALUE;
    if (i >= ((int64_t)1 << 20) || j >= ((int64_t)1 << 20) ||
        k >= ((int64_t)1 << 20)) return RT_ERANGE;
    x = (uint64_t)i; y = (uint64_t)j; z = (uint64_t)k;
    while (x || y || z) {
        key |= (x & 1u) << shift;
        key |= (y & 1u) << (shift + 1);
        key |= (z & 1u) << (shift + 2);
        x >>= 1; y >>= 1; z >>= 1; shift += 3;
    }
    *out = (int64_t)key;
    return RT_OK;
}

/* ------------------------------------------------------------------ */
/* rt_iset — OrderedSet: sorted unique int64 values, deduplicated at   */
/* insertion (bisect + memmove), exactly like the Python runtime.      */
typedef struct { int64_t* data; int64_t n, cap; } rt_iset;

static void rt_iset_init(rt_iset* s) { s->data = NULL; s->n = 0; s->cap = 0; }
static void rt_iset_free(rt_iset* s) { free(s->data); s->data = NULL; s->n = 0; s->cap = 0; }

static int rt_iset_insert(rt_iset* s, int64_t v) {
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

static int rt_iset_to_array(rt_iset* s, int64_t** out, int64_t* len_out) {
    return rt_copy_i64(s->data, s->n, out, len_out);
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

static int rt_lexperm_init(rt_lexperm* p, int64_t nb) {
    if (nb < 1) return RT_EVALUE;
    free(p->counts); free(p->starts); free(p->fill);
    p->nb = nb;
    p->counts = (int64_t*)calloc((size_t)(nb + 1), sizeof(int64_t));
    p->starts = NULL; p->fill = NULL;
    p->total = 0; p->served = 0; p->finalized = 0;
    return p->counts ? RT_OK : RT_ENOMEM;
}
static void rt_lexperm_free(rt_lexperm* p) {
    free(p->counts); free(p->starts); free(p->fill);
    p->counts = NULL; p->starts = NULL; p->fill = NULL;
}

static int rt_lexperm_insert(rt_lexperm* p, int64_t bucket) {
    if (bucket < -1 || bucket >= p->nb) return RT_EKEY;
    p->counts[bucket + 1] += 1;
    p->total += 1;
    p->finalized = 0;
    return RT_OK;
}

static int rt_lexperm_finalize(rt_lexperm* p) {
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

static int rt_lexperm_lookup(rt_lexperm* p, int64_t bucket, int64_t* out) {
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
/* rt_olist — OrderedList: append coordinate tuples + their key tuples,*/
/* finalize with a stable LSD radix sort over the key columns (none:   */
/* insertion order), then serve lookups from an open-addressing        */
/* coords -> rank hash map.  Duplicate coordinate tuples take the rank */
/* of their last occurrence in sorted order; unique=1 collapses equal  */
/* keys onto one rank.                                                  */
typedef struct {
    int64_t arity, keylen;
    int unique;
    int64_t n, cap;
    int64_t* coords;     /* n * arity */
    int64_t* keys;       /* n * keylen */
    int finalized;
    int64_t distinct;
    int64_t* ht_idx;     /* hash slots -> item index, -1 empty */
    int64_t* ht_rank;
    uint64_t mask;
} rt_olist;

static void rt_olist_init(
    rt_olist* o, int64_t arity, int64_t keylen, int unique
) {
    memset(o, 0, sizeof(*o));
    o->arity = arity;
    o->keylen = keylen;
    o->unique = unique;
}
static void rt_olist_free(rt_olist* o) {
    free(o->coords); free(o->keys); free(o->ht_idx); free(o->ht_rank);
    o->coords = NULL; o->keys = NULL; o->ht_idx = NULL; o->ht_rank = NULL;
}

static int rt_olist_push(rt_olist* o, const int64_t* c, const int64_t* k) {
    if (o->finalized) return RT_ESTATE;
    if (o->n == o->cap) {
        int64_t ncap = o->cap ? o->cap * 2 : 16;
        int64_t* nc = (int64_t*)realloc(
            o->coords, (size_t)(ncap * o->arity) * sizeof(int64_t));
        int64_t* nk;
        if (!nc) return RT_ENOMEM;
        o->coords = nc;
        /* At least one word per item: realloc(p, 0) would free p. */
        nk = (int64_t*)realloc(
            o->keys, (size_t)(ncap * (o->keylen ? o->keylen : 1))
                     * sizeof(int64_t));
        if (!nk) return RT_ENOMEM;
        o->keys = nk;
        o->cap = ncap;
    }
    memcpy(o->coords + o->n * o->arity, c,
           (size_t)o->arity * sizeof(int64_t));
    memcpy(o->keys + o->n * o->keylen, k,
           (size_t)o->keylen * sizeof(int64_t));
    o->n += 1;
    return RT_OK;
}

static uint64_t rt_mix(uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}
static uint64_t rt_hash_coords(const int64_t* c, int64_t arity) {
    uint64_t h = 0x243F6A8885A308D3ULL;
    int64_t a;
    for (a = 0; a < arity; a++) h = rt_mix(h ^ (uint64_t)c[a]);
    return h;
}

static int rt_olist_finalize(rt_olist* o) {
    int64_t n = o->n, kl = o->keylen, i, col, next_rank;
    uint64_t cap;
    int64_t* order = NULL;
    int64_t* tmp = NULL;
    uint64_t* kcol = NULL;
    int64_t* cnt = NULL;
    if (o->finalized) return RT_OK;
    order = (int64_t*)malloc((size_t)(n > 0 ? n : 1) * sizeof(int64_t));
    tmp = (int64_t*)malloc((size_t)(n > 0 ? n : 1) * sizeof(int64_t));
    kcol = (uint64_t*)malloc((size_t)(n > 0 ? n : 1) * sizeof(uint64_t));
    cnt = (int64_t*)malloc((size_t)65536 * sizeof(int64_t));
    if (!order || !tmp || !kcol || !cnt) {
        free(order); free(tmp); free(kcol); free(cnt);
        return RT_ENOMEM;
    }
    for (i = 0; i < n; i++) order[i] = i;
    /* Stable LSD radix, least-significant key column last-to-first;   */
    /* the sign bit is flipped so unsigned digit order == signed order.*/
    for (col = kl - 1; col >= 0; col--) {
        uint64_t diff = 0, first = 0;
        int shift;
        for (i = 0; i < n; i++) {
            uint64_t k = (uint64_t)o->keys[i * kl + col]
                         ^ 0x8000000000000000ULL;
            kcol[i] = k;
            if (i == 0) first = k; else diff |= k ^ first;
        }
        for (shift = 0; shift < 64; shift += 16) {
            int64_t run = 0;
            int b;
            if (((diff >> shift) & 0xFFFFULL) == 0) continue;
            memset(cnt, 0, (size_t)65536 * sizeof(int64_t));
            for (i = 0; i < n; i++)
                cnt[(kcol[order[i]] >> shift) & 0xFFFFULL] += 1;
            for (b = 0; b < 65536; b++) {
                int64_t c = cnt[b];
                cnt[b] = run;
                run += c;
            }
            for (i = 0; i < n; i++) {
                uint64_t d = (kcol[order[i]] >> shift) & 0xFFFFULL;
                tmp[cnt[d]++] = order[i];
            }
            { int64_t* sw = order; order = tmp; tmp = sw; }
        }
    }
    free(kcol); free(cnt);
    kcol = NULL; cnt = NULL;
    /* coords -> rank hash map; later (sorted-order) writes overwrite  */
    /* earlier ones, giving Python's dict last-wins semantics.         */
    cap = 16;
    while (cap < (uint64_t)(2 * n + 1)) cap <<= 1;
    free(o->ht_idx); free(o->ht_rank);
    o->ht_idx = (int64_t*)malloc((size_t)cap * sizeof(int64_t));
    o->ht_rank = (int64_t*)malloc((size_t)cap * sizeof(int64_t));
    if (!o->ht_idx || !o->ht_rank) {
        free(order); free(tmp);
        return RT_ENOMEM;
    }
    for (i = 0; i < (int64_t)cap; i++) o->ht_idx[i] = -1;
    o->mask = cap - 1;
    next_rank = -1;
    for (i = 0; i < n; i++) {
        int64_t it = order[i];
        const int64_t* cc = o->coords + it * o->arity;
        uint64_t h;
        if (o->unique) {
            if (i == 0 || memcmp(o->keys + order[i - 1] * kl,
                                 o->keys + it * kl,
                                 (size_t)kl * sizeof(int64_t)) != 0)
                next_rank += 1;
        } else {
            next_rank = i;
        }
        h = rt_hash_coords(cc, o->arity) & o->mask;
        for (;;) {
            int64_t slot = o->ht_idx[h];
            if (slot < 0 ||
                memcmp(o->coords + slot * o->arity, cc,
                       (size_t)o->arity * sizeof(int64_t)) == 0) {
                o->ht_idx[h] = it;
                o->ht_rank[h] = next_rank;
                break;
            }
            h = (h + 1) & o->mask;
        }
    }
    o->distinct = (n == 0) ? 0 : next_rank + 1;
    free(order); free(tmp);
    o->finalized = 1;
    return RT_OK;
}

static int rt_olist_lookup(rt_olist* o, const int64_t* c, int64_t* out) {
    uint64_t h;
    int rc;
    if (!o->finalized) { rc = rt_olist_finalize(o); if (rc) return rc; }
    if (o->n == 0) return RT_EKEY;
    h = rt_hash_coords(c, o->arity) & o->mask;
    for (;;) {
        int64_t it = o->ht_idx[h];
        if (it < 0) return RT_EKEY;
        if (memcmp(o->coords + it * o->arity, c,
                   (size_t)o->arity * sizeof(int64_t)) == 0) {
            *out = o->ht_rank[h];
            return RT_OK;
        }
        h = (h + 1) & o->mask;
    }
}

static int rt_olist_len(rt_olist* o, int64_t* out) {
    if (o->unique) {
        int rc;
        if (!o->finalized) { rc = rt_olist_finalize(o); if (rc) return rc; }
        *out = o->distinct;
        return RT_OK;
    }
    *out = o->n;
    return RT_OK;
}

void repro_free(void* p) { free(p); }
"""


def _v(name: str) -> str:
    """Mangle a generated-code name into the C local namespace."""
    return f"v_{name}"


def _s(name: str) -> str:
    """Mangle a permutation-object name into its C struct variable."""
    return f"s_{name}"


_MORTON = {2: "rt_morton2", 3: "rt_morton3"}
_COMBINE = {"max": "rt_max2", "min": "rt_min2"}


@dataclass
class _ObjInfo:
    kind: str  # "olist" | "iset" | "lexperm"
    arity: int = 0
    keylen: int = 0
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
            self.kind[p] = "scalar"
        self.arr_type: dict[str, str] = {
            p: (F8 if p == st.SOURCE_VALUES else I8) for p in self.array_params
        }
        self.scalars: list[str] = []  # declaration order
        self.local_arrays: list[str] = []
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

    def declare_scalar(self, name: str) -> None:
        existing = self.kind.get(name)
        if existing is None:
            self.kind[name] = "scalar"
            self.scalars.append(name)
        elif existing != "scalar":
            raise self.err(f"{name!r} used as both {existing} and scalar")

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
        """``array[index]`` over a local or parameter int64/float64 array."""
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
        expr = node.expr
        self.declare_scalar(node.var)
        # A whole-expression permutation lookup (`k = P(i, j)`) lowers to
        # a fallible runtime call, not an inline expression.
        if (
            len(expr.terms) == 1
            and expr.const == 0
            and expr.terms[0][1] == 1
            and isinstance(expr.terms[0][0], UFCall)
        ):
            atom = expr.terms[0][0]
            info = self.objects.get(atom.name)
            if info is not None and info.kind in ("olist", "lexperm"):
                args = [self.e.expr(a) for a in atom.args]
                self.emit_lookup(node.var, atom.name, info, args, ind)
                return
        self.line(ind, f"{_v(node.var)} = {self.e.expr(expr)};")

    def emit_lookup(self, var, obj, info: _ObjInfo, args, ind) -> None:
        if len(args) != info.arity:
            raise self.err(f"{obj!r} lookup arity mismatch")
        if info.kind == "lexperm":
            self.check(
                ind,
                f"rt_lexperm_lookup(&{_s(obj)}, {args[info.which]}, "
                f"&{_v(var)})",
            )
            return
        self.line(ind, "{")
        self.line(ind + 1, f"int64_t c__[{info.arity}] = {{{', '.join(args)}}};")
        self.check(ind + 1, f"rt_olist_lookup(&{_s(obj)}, c__, &{_v(var)})")
        self.line(ind, "}")

    # -- statements -------------------------------------------------------
    def statement(self, node: st.Statement, ind: int) -> None:
        e = self.e.expr
        if isinstance(node, st.Alloc):
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
        """Declare an ordered list plus its key and insert helpers."""
        if node.unique and not node.key:
            raise self.err(f"{node!r} collapses ties without a key")
        arity, keylen = len(node.params), len(node.key)
        self.declare_object(node.name, _ObjInfo("olist", arity, keylen))
        keys = _CExprs(self, {p: f"c[{i}]" for i, p in enumerate(node.params)})
        v = _v(node.name)
        lines = [f"static int rt_key_{v}(const int64_t* c, int64_t* k) {{"]
        fallible = False
        for pos, key in enumerate(node.key):
            call = key.terms[0][0] if len(key.terms) == 1 else None
            if (
                isinstance(call, UFCall)
                and key == call.as_expr()
                and len(call.args) in _MORTON
                and call.name.startswith("MORTON")
            ):
                args = ", ".join(keys.expr(a) for a in call.args)
                fallible = True
                lines.append(
                    f"    rc = {_MORTON[len(call.args)]}({args}, &k[{pos}]); "
                    "if (rc) return rc;"
                )
            else:
                lines.append(f"    k[{pos}] = {keys.expr(key)};")
        if fallible:
            lines.insert(1, "    int rc;")
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
        self.line(
            ind,
            f"rt_olist_init(&{_s(node.name)}, {arity}, {keylen}, "
            f"{int(node.unique)});",
        )

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
            if name in self.params:
                raise self.err(f"return {name!r} aliases a parameter")
        self.node(self.program, 1)

        decls: list[str] = []
        for i, p in enumerate(self.array_params):
            ctype = "double" if self.arr_type[p] == F8 else "int64_t"
            decls.append(
                f"    const {ctype}* {_v(p)} = (const {ctype}*)arrs[{i}];"
            )
            decls.append(f"    int64_t {_v(p)}__len = (int64_t)lens[{i}];")
            decls.append(f"    (void){_v(p)}__len;")
        for j, p in enumerate(self.scalar_params):
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
        if self.scalars:
            joined = ", ".join(f"{_v(n)} = 0" for n in self.scalars)
            decls.append(f"    int64_t {joined};")

        pack: list[str] = []
        manifest: list[tuple[str, str]] = []
        for i, name in enumerate(self.returns):
            kind = self.kind.get(name)
            if kind == "array":
                if name in self.array_params:
                    raise self.err(f"return {name!r} aliases a parameter")
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
            RUNTIME_C,
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
            returns=manifest,
        )


def emit_c(comp, params, returns, symtab: SymbolTable) -> CEmitted:
    """Emit a compilable C99 translation unit for one computation.

    Raises :class:`~repro.spf.statements.UnsupportedStatement`, naming the
    statement, when the computation uses a construct outside the closed
    statement set.
    """
    program = comp.lower()
    emitter = _Emitter(program, comp.name, params, returns, symtab)
    return emitter.run()
