"""Executor for generated inspector code.

The synthesis engine emits Python source for an inspector function; this
module compiles it once and exposes it as a callable.  The execution
namespace provides the runtime helpers generated code may reference — the
Morton function, the :class:`OrderedList` / :class:`OrderedSet` permutation
structures, and ``max`` / ``min``.
"""

from __future__ import annotations

from typing import Callable, Mapping

from . import npvec
from .morton import morton, morton2, morton3, morton2_vec, morton3_vec, morton_vec
from .ordered_list import LexBucketPermutation, OrderedList, OrderedSet


def bsearch(arr, value) -> int:
    """Binary search in a sorted indexable; returns -1 when absent.

    Used by the Figure 3 rewrite: ``arr`` is a strictly monotonic index
    array (a list or :class:`OrderedSet`).
    """
    lo, hi = 0, len(arr) - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        entry = arr[mid]
        if entry == value:
            return mid
        if entry < value:
            lo = mid + 1
        else:
            hi = mid - 1
    return -1


#: Immutable parts of the execution namespace, built once at import time.
#: ``base_namespace`` used to rebuild this dict (and the builtins dict) for
#: every :class:`CompiledInspector`; now construction is a shallow copy.
_BASE_BUILTINS: dict = {
    "max": max,
    "min": min,
    "int": int,
    "float": float,
    "len": len,
    "range": range,
    "list": list,
    "tuple": tuple,
    "enumerate": enumerate,
    "sorted": sorted,
    "isinstance": isinstance,
    "KeyError": KeyError,
    "ValueError": ValueError,
}

_BASE_NAMESPACE: dict = {
    "__builtins__": _BASE_BUILTINS,
    "MORTON": morton,
    "MORTON2": morton2,
    "MORTON3": morton3,
    "BSEARCH": bsearch,
    "OrderedList": OrderedList,
    "OrderedSet": OrderedSet,
    "LexBucketPermutation": LexBucketPermutation,
}

#: Extra helpers available to inspectors lowered by the numpy backend (see
#: :mod:`repro.spf.codegen.vectorize`).  Scalar-fallback statements inside a
#: vectorized inspector still use the scalar helpers above, so the numpy
#: namespace is a superset of the base one.
_NUMPY_EXTRAS: dict = {
    "np": npvec.np,
    "ASARRAY_INT": npvec.ASARRAY_INT,
    "ASARRAY_FLOAT": npvec.ASARRAY_FLOAT,
    "BOOLMASK": npvec.BOOLMASK,
    "SEGMENTS": npvec.SEGMENTS,
    "FILL_POS": npvec.FILL_POS,
    "COUNT_POS": npvec.COUNT_POS,
    "STABLE_POS": npvec.STABLE_POS,
    "DENSE_POS": npvec.DENSE_POS,
    "BSEARCH_V": npvec.BSEARCH_V,
    "MORTON_V": morton_vec,
    "MORTON2_V": morton2_vec,
    "MORTON3_V": morton3_vec,
}


def base_namespace(backend: str = "python") -> dict:
    """The globals available to every generated inspector.

    Delegates to the registered backend's
    :meth:`~repro.backends.Backend.namespace` hook; the built-in backends
    pull :data:`_BASE_NAMESPACE` / :data:`_NUMPY_EXTRAS` from here (the
    dicts stay canonical in this module so runtime helpers have a single
    home).
    """
    from repro.backends import get_backend

    return get_backend(backend).namespace()


class CompiledInspector:
    """A compiled inspector function plus its source for inspection."""

    def __init__(
        self,
        name: str,
        source: str,
        extra_env: Mapping | None = None,
        backend: str = "python",
    ):
        self.name = name
        self.source = source
        self.backend = backend
        namespace = base_namespace(backend)
        if extra_env:
            namespace.update(extra_env)
        try:
            code = compile(source, filename=f"<inspector:{name}>", mode="exec")
        except SyntaxError as err:
            raise ValueError(
                f"generated inspector {name!r} does not compile: {err}\n{source}"
            ) from err
        exec(code, namespace)
        fn = namespace.get(name)
        if not callable(fn):
            raise ValueError(f"source does not define a function named {name!r}")
        self._fn: Callable = fn

    def __call__(self, *args, **kwargs):
        return self._fn(*args, **kwargs)

    def __repr__(self):
        return f"CompiledInspector({self.name!r})"


#: Process-wide memo of compiled inspectors keyed on ``(name, source,
#: backend, code_version)``.  Planners and benchmarks repeatedly synthesize
#: the same conversions; identical source compiles (and execs) exactly
#: once.  The code-version component mirrors the disk cache's partitioning:
#: the runtime helpers baked into the execution namespace are part of this
#: package, so a key that ignores them could serve a stale closure to code
#: that reloads the package in place (importlib.reload-style workflows).
_COMPILE_CACHE: dict[tuple[str, str, str, str], CompiledInspector] = {}


def compile_inspector(
    name: str,
    source: str,
    extra_env: Mapping | None = None,
    backend: str = "python",
) -> CompiledInspector:
    """Compile generated source into a callable inspector (memoized).

    Calls with ``extra_env`` bypass the cache: the environment is part of
    the compiled closure and mappings are not reliably hashable.
    """
    import repro.obs as obs
    from repro._prof import PROF
    from repro.backends import get_backend

    backend = get_backend(backend).name
    if extra_env:
        with obs.span("compile", category="compile", inspector=name):
            return CompiledInspector(name, source, extra_env, backend=backend)
    from repro.codeversion import code_version_hash

    key = (name, source, backend, code_version_hash())
    cached = _COMPILE_CACHE.get(key)
    if cached is None:
        PROF.incr("cache.compile.miss")
        with obs.span("compile", category="compile", inspector=name):
            cached = _COMPILE_CACHE[key] = CompiledInspector(
                name, source, backend=backend
            )
    else:
        PROF.incr("cache.compile.hit")
    return cached


def clear_compile_cache() -> None:
    """Drop all memoized inspectors (mainly for tests)."""
    _COMPILE_CACHE.clear()
