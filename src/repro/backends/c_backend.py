"""The compiled-C lowering backend (cffi + content-hashed .so cache).

The third tier behind the backend registry: :mod:`repro.spf.codegen.c_emit`
prints every conversion's typed statements as compilable C99, this module
compiles it into a shared object through cffi and marshals the inspector's
containers across the FFI boundary as contiguous int64/float64 buffers
(zero-copy for the containers' typed arrays and for numpy arrays of the
declared dtype).

Compiled artifacts are cached on disk following the PR 2 disk-cache
conventions:

* content-hashed — the artifact name is ``sha256(c_source)``, so identical
  generated C compiles exactly once across processes,
* version-partitioned — the cache directory embeds both the package's
  code-version hash and a compiler-version tag, so neither a synthesizer
  change nor a toolchain upgrade can serve a stale binary,
* atomically published — compile to a temp path, ``os.replace`` into
  place, safe under concurrent writers.

Environment knobs:

* ``REPRO_CBACKEND_DIR`` — artifact cache location (default
  ``~/.cache/repro-cbackend``),
* ``REPRO_CBACKEND_DISABLE=1`` — skip the persistent disk layer; shared
  objects are built in a per-process scratch directory instead,
* ``CC`` — compiler override; when set it is authoritative (a set-but-
  missing ``CC`` makes the backend unavailable, which is how CI simulates
  a machine without a toolchain).

``CBackend.require`` gates on cffi + a working compiler, raising the
registry's :class:`~repro.backends.registry.BackendUnavailableError` so
every entry point can degrade gracefully to the numpy tier.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
from array import array
from pathlib import Path
from typing import Sequence

from .base import (
    Backend,
    BackendCapabilities,
    Lowering,
    source_features,
    workload_units,
)
from .registry import BackendUnavailableError

#: The fixed ABI every generated translation unit exports.  Inputs arrive
#: as void pointers + element counts (int64 or float64 buffers, per the
#: spec manifest); outputs come back as (pointer, length) pairs the caller
#: must release through ``repro_free``.  Scalar returns use ``len`` with a
#: NULL pointer.
_CDEF = """
typedef struct { void* ptr; long long len; } rt_buf;
int repro_run(void** arrs, long long* lens, long long* scalars, rt_buf* out);
void repro_free(void* p);
"""

#: Error codes returned by ``repro_run`` (mirrors RUNTIME_C in c_emit),
#: mapped onto the exception the interpreted runtime would have raised.
_ERRNO = {
    1: MemoryError,
    2: KeyError,
    3: ValueError,
    4: OverflowError,
    5: RuntimeError,
}

_CFLAGS = ("-O2", "-shared", "-fPIC", "-std=c99")


class CCompileError(RuntimeError):
    """The C compiler rejected a generated translation unit."""


# ----------------------------------------------------------------------
# Toolchain discovery
# ----------------------------------------------------------------------
#: ``compiler_path()`` results keyed on the ``($CC, $PATH)`` they were
#: resolved under, so a changed environment resolves afresh.
_COMPILER_PATHS: dict[tuple[str | None, str | None], str | None] = {}


def compiler_path() -> str | None:
    """Absolute path of the C compiler, or None when there is none.

    ``$CC`` is authoritative when set — if it does not resolve, the
    backend is unavailable rather than silently using another compiler
    (CI's no-toolchain job relies on ``CC=/nonexistent``).  The lookup
    runs on every backend resolution, so it is memoized per
    ``($CC, $PATH)``.
    """
    key = (os.environ.get("CC"), os.environ.get("PATH"))
    if key not in _COMPILER_PATHS:
        _COMPILER_PATHS[key] = _find_compiler(key[0])
    return _COMPILER_PATHS[key]


def _find_compiler(cc: str | None) -> str | None:
    if cc is not None:
        return shutil.which(cc)
    for candidate in ("cc", "gcc", "clang"):
        path = shutil.which(candidate)
        if path:
            return path
    return None


#: Memoized compiler tag; tests monkeypatch this to simulate a toolchain
#: upgrade without installing one.
_COMPILER_TAG: str | None = None


def compiler_version_tag() -> str | None:
    """Stable hash of (compiler path, ``--version`` banner), or None."""
    global _COMPILER_TAG
    if _COMPILER_TAG is None:
        path = compiler_path()
        if path is None:
            return None
        try:
            proc = subprocess.run(
                [path, "--version"],
                capture_output=True,
                text=True,
                timeout=30,
            )
            banner = (proc.stdout or proc.stderr).splitlines()
            first = banner[0] if banner else path
        except (OSError, subprocess.SubprocessError):
            first = path
        _COMPILER_TAG = hashlib.sha256(
            f"{path}\n{first}".encode()
        ).hexdigest()[:16]
    return _COMPILER_TAG


# ----------------------------------------------------------------------
# Artifact cache
# ----------------------------------------------------------------------
def artifact_root() -> Path:
    env = os.environ.get("REPRO_CBACKEND_DIR")
    if env:
        return Path(env)
    return Path.home() / ".cache" / "repro-cbackend"


def disk_enabled() -> bool:
    return os.environ.get("REPRO_CBACKEND_DISABLE", "") not in (
        "1",
        "true",
        "on",
        "yes",
    )


def artifact_dir() -> Path:
    """Version-partitioned artifact directory.

    Partitioned on *both* the package code version (the generated C
    changes with the synthesizer) and the compiler tag (the binary
    changes with the toolchain) — mirrors the inspector disk cache's
    code-version partitioning.
    """
    from repro.codeversion import code_version_hash

    tag = compiler_version_tag() or "nocc"
    return artifact_root() / f"{code_version_hash()[:12]}-{tag[:12]}"


_SCRATCH: Path | None = None


def _scratch_dir() -> Path:
    """Per-process artifact directory when the disk layer is disabled."""
    global _SCRATCH
    if _SCRATCH is None:
        _SCRATCH = Path(tempfile.mkdtemp(prefix="repro-cbackend-"))
    return _SCRATCH


_FFI = None


def _ffi():
    global _FFI
    if _FFI is None:
        import cffi

        ffi = cffi.FFI()
        ffi.cdef(_CDEF)
        _FFI = ffi
    return _FFI


def _compile_artifact(c_source: str, so_path: Path, cc: str) -> None:
    """Compile one translation unit and atomically publish the .so.

    The .c file is published alongside the artifact for debugging; both
    writes go through temp-path + ``os.replace`` so concurrent processes
    compiling the same source race benignly (identical content).
    """
    so_path.parent.mkdir(parents=True, exist_ok=True)
    c_path = so_path.with_suffix(".c")
    fd, tmp_c = tempfile.mkstemp(
        dir=str(so_path.parent), prefix=c_path.name, suffix=".tmp"
    )
    with os.fdopen(fd, "w") as fh:
        fh.write(c_source)
    os.replace(tmp_c, c_path)
    tmp_so = f"{so_path}.{os.getpid()}.tmp"
    cmd = [cc, *_CFLAGS, "-o", tmp_so, str(c_path)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        try:
            os.unlink(tmp_so)
        except OSError:
            pass
        raise CCompileError(
            f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}"
        )
    os.replace(tmp_so, so_path)


#: Process-wide memo of loaded shared objects keyed on the full source
#: digest — one dlopen per distinct translation unit per process.
_LIB_MEMO: dict[str, object] = {}


def load_library(c_source: str):
    """dlopen the compiled artifact for ``c_source``, compiling on miss.

    ``cbackend.compile.hit`` counts artifacts served from the disk cache
    (or this process's memo); ``cbackend.compile.miss`` counts actual
    compiler invocations — CI pins warm runs on the hit counter.
    """
    import repro.obs as obs
    from repro._prof import PROF

    digest = hashlib.sha256(c_source.encode()).hexdigest()
    lib = _LIB_MEMO.get(digest)
    if lib is not None:
        PROF.incr("cbackend.compile.hit")
        return lib
    base = artifact_dir() if disk_enabled() else _scratch_dir()
    so_path = base / f"{digest[:24]}.so"
    if so_path.exists():
        PROF.incr("cbackend.compile.hit")
        cached = True
    else:
        PROF.incr("cbackend.compile.miss")
        cached = False
        cc = compiler_path()
        if cc is None:
            raise BackendUnavailableError(
                "c", "no C compiler found (checked $CC, cc, gcc, clang)"
            )
        with obs.span("c.compile", category="compile", artifact=so_path.name):
            _compile_artifact(c_source, so_path, cc)
    with obs.span(
        "c.load", category="compile", artifact=so_path.name, cached=cached
    ):
        lib = _ffi().dlopen(str(so_path))
    _LIB_MEMO[digest] = lib
    return lib


def clear_lib_memo() -> None:
    """Drop the per-process dlopen memo (mainly for tests)."""
    _LIB_MEMO.clear()


# ----------------------------------------------------------------------
# FFI marshalling — the __C_RUN helper generated wrappers call
# ----------------------------------------------------------------------
def _c_run(spec: dict, array_args: tuple, scalar_args: tuple) -> dict:
    """Execute one compiled inspector.

    ``spec`` is the manifest literal embedded in the wrapper source:
    ``arrays`` — (name, dtype) in parameter order, ``scalars`` — names,
    ``returns`` — (name, "i8"|"f8"|"scalar"), ``c`` — the translation
    unit.  A container's typed array, or a contiguous numpy array, of
    the declared dtype crosses the boundary zero-copy (the generated C
    reads inputs through ``const`` pointers); lists and mismatched
    dtypes are converted once at the edge.
    """
    import numpy as np

    from repro.runtime.storage import INDEX, VALUE

    lib = load_library(spec["c"])
    ffi = _ffi()
    n_arrays = len(spec["arrays"])
    arrs = ffi.new("void*[]", max(n_arrays, 1))
    lens = ffi.new("long long[]", max(n_arrays, 1))
    # Keep the staged arrays (and their buffers) alive across the call.
    keepalive = []
    for i, ((_name, dt), value) in enumerate(zip(spec["arrays"], array_args)):
        typecode = VALUE if dt == "f8" else INDEX
        if isinstance(value, array) and value.typecode == typecode:
            staged = value
        else:
            dtype = np.float64 if dt == "f8" else np.int64
            staged = np.ascontiguousarray(np.asarray(value, dtype=dtype))
        keepalive.append(staged)
        arrs[i] = ffi.from_buffer(staged) if len(staged) else ffi.NULL
        lens[i] = len(staged)
    n_scalars = len(spec["scalars"])
    scalars = ffi.new("long long[]", max(n_scalars, 1))
    for j, value in enumerate(scalar_args):
        scalars[j] = int(value)
    out = ffi.new("rt_buf[]", max(len(spec["returns"]), 1))
    rc = lib.repro_run(arrs, lens, scalars, out)
    if rc != 0:
        exc = _ERRNO.get(rc, RuntimeError)
        raise exc(f"compiled inspector {spec['name']!r} failed (rc={rc})")
    del keepalive
    result = {}
    for i, (name, kind) in enumerate(spec["returns"]):
        if kind == "scalar":
            result[name] = int(out[i].len)
            continue
        count = int(out[i].len)
        dtype = np.float64 if kind == "f8" else np.int64
        if count <= 0 or out[i].ptr == ffi.NULL:
            if out[i].ptr != ffi.NULL:
                lib.repro_free(out[i].ptr)
            result[name] = np.empty(0, dtype=dtype)
            continue
        # Zero-copy view over the C allocation; repro_free runs when the
        # cdata (kept alive by the array's base buffer) is collected.
        owned = ffi.gc(out[i].ptr, lib.repro_free)
        buf = ffi.buffer(owned, count * 8)
        result[name] = np.frombuffer(buf, dtype=dtype)
    return result


# ----------------------------------------------------------------------
# Wrapper source
# ----------------------------------------------------------------------
def _wrapper_source(name: str, params: Sequence[str], emitted) -> str:
    """Python wrapper embedding the C translation unit + ABI manifest.

    The wrapper is ordinary inspector source: it round-trips through the
    executor's compile memo and the synthesis disk cache unchanged, and
    only needs ``__C_RUN`` (provided by :meth:`CBackend.namespace`) at
    exec time.  The .so compile happens lazily on first call.
    """
    spec = {
        "name": name,
        "arrays": tuple(emitted.array_params),
        "scalars": tuple(emitted.scalar_params),
        "returns": tuple(emitted.returns),
        "c": emitted.c_source,
    }
    array_args = "".join(f"{n}, " for n, _dt in emitted.array_params)
    scalar_args = "".join(f"{n}, " for n in emitted.scalar_params)
    signature = ", ".join(params)
    return (
        f"__C_SPEC_{name} = {spec!r}\n"
        f"\n"
        f"\n"
        f"def {name}({signature}):\n"
        f"    return __C_RUN(__C_SPEC_{name}, ({array_args}), "
        f"({scalar_args}))\n"
    )


class CBackend(Backend):
    """Compiled C99 loop nests behind cffi — the native tier.

    Lowers through :func:`repro.spf.codegen.c_emit.emit_c`, which prints
    every statement kind synthesis emits: each conversion runs as a
    compiled wrapper, never as interpreted source.
    """

    name = "c"
    description = "C99 loop nests compiled via cffi (content-hashed .so cache)"
    capabilities = BackendCapabilities(
        ranks=(2, 3),
        vectorized=False,
        strategies=(
            "compiled-loops",
            "radix-sort-rank",
            "hash-lookup",
        ),
        requires=("cffi", "numpy"),
    )
    differential_reference = "python"
    differential_references = ("python", "numpy")

    def require(self) -> None:
        try:
            import cffi  # noqa: F401
        except ImportError as err:
            raise BackendUnavailableError(
                "c", "cffi is not installed (pip install repro[native])"
            ) from err
        try:
            import numpy  # noqa: F401
        except ImportError as err:
            raise BackendUnavailableError(
                "c", "numpy is not installed"
            ) from err
        if compiler_path() is None:
            raise BackendUnavailableError(
                "c", "no C compiler found (checked $CC, cc, gcc, clang)"
            )

    def lower(
        self,
        comp,
        params: Sequence[str],
        returns: Sequence[str],
        symtab,
        *,
        scalar_source: str | None = None,
    ) -> Lowering:
        import repro.obs as obs
        from repro.spf.codegen.c_emit import emit_c

        with obs.span("c.codegen", category="codegen", inspector=comp.name):
            emitted = emit_c(comp, list(params), list(returns), symtab)
        return Lowering(
            source=_wrapper_source(comp.name, list(params), emitted)
        )

    def namespace(self) -> dict:
        # The wrapper needs __C_RUN; the base helpers ride along.
        from repro.runtime import executor

        namespace = dict(executor._BASE_NAMESPACE)
        namespace["__C_RUN"] = _c_run
        return namespace

    def estimate_cost(self, conversion, stats=None) -> float:
        """Cost model for compiled inspectors.

        The structural features come from the *scalar* source — the
        executable source is a marshalling wrapper — weighted at compiled
        per-element cost: ~1/500 of an interpreted element, ~1/5 of a
        numpy-vectorized one, plus a fixed FFI dispatch/marshal floor so
        tiny matrices still prefer the tierless paths.
        """
        feats = source_features(
            conversion.scalar_source or conversion.source
        )
        if stats is None:
            cost = 0.05 + 0.02 * feats["passes"]
            if feats["sort"]:
                cost += 0.08  # radix rank + hash build
            if feats["set"]:
                cost += 0.02
            if feats["bucket_perm"]:
                cost += 0.01
            if feats["bsearch"]:
                cost += 0.02
            if feats["linear_search"]:
                cost += 0.08
            return cost
        units = workload_units(conversion, stats)
        cost = 5.0  # FFI dispatch + input staging floor
        cost += 0.002 * feats["passes"] * units["pass_elems"]
        if feats["sort"]:
            cost += 0.004 * units["sort_elems"]
        if feats["set"]:
            cost += 0.002 * units["sort_elems"]
        if feats["bucket_perm"]:
            cost += 0.001 * units["pass_elems"]
        if feats["bsearch"]:
            cost += 0.004 * units["bsearch_elems"]
        if feats["linear_search"]:
            cost += 0.002 * units["linear_search_elems"]
        return cost
