"""The compiled-C lowering backend (cffi + content-hashed .so cache).

The third tier behind the backend registry: :mod:`repro.spf.codegen.c_emit`
prints every conversion's typed statements as compilable C99, this module
compiles it into a shared object through cffi and marshals the inspector's
containers across the FFI boundary as contiguous int64/float64 buffers
(zero-copy for the containers' typed arrays and for numpy arrays of the
declared dtype).

Compiled artifacts are cached on disk, the only generated code the
package keeps across processes:

* named by what builds them — ``sha256`` of the compiler tag, the flags
  and the C source (a library's also of the runtime object's name), in
  one directory per compiler tag, so identical C compiles once across
  processes and package versions, and a changed runtime, flag or
  toolchain never serves a stale binary,
* built in two steps into fresh files — ``cc -pipe -c`` compiles the
  unit into an object of this process's own, a second ``cc -shared``
  links it into a temp library, and ``os.replace`` publishes that on
  the artifact's path, which does not exist yet.  No file a build writes
  replaces or truncates an existing one: on ext4 with ``auto_da_alloc``
  (the default) truncating or renaming over a file forces its data out
  first and stalls ≈45-65 ms, which a one-step ``cc -shared`` paid twice
  per library on gcc's own temp files,
* safe under concurrent writers — threads and processes building one
  artifact wait for one build.

The runtime routines every inspector calls (``RUNTIME_C`` in
:mod:`repro.spf.codegen.c_emit`) are compiled once per cache directory
into ``runtime-<hash>.o`` (``-fPIC``, hidden visibility; the compile
step alone), built on the first inspector compile that needs it.  Each
inspector unit embeds the runtime header and links that object, so gcc
optimizes only the unit's own loops; every library still exports only
``repro_run`` and ``repro_free``.

Environment knobs:

* ``REPRO_CBACKEND_DIR`` — artifact cache location (default
  ``~/.cache/repro-cbackend``),
* ``CC`` — compiler override; when set it is authoritative (a set-but-
  missing ``CC`` makes the backend unavailable, which is how CI simulates
  a machine without a toolchain).

``CBackend.require`` gates on cffi, numpy and a working compiler,
raising the registry's
:class:`~repro.backends.registry.BackendUnavailableError` with every
missing one in its reason, so every entry point can degrade gracefully
to the numpy tier.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import os
import shutil
import subprocess
import threading
import time
from array import array
from pathlib import Path
from typing import Sequence

import repro.obs as obs
from repro.filelock import file_lock

from .base import Backend, BackendCapabilities, Lowering
from .registry import BackendUnavailableError

#: The fixed ABI every generated translation unit exports.  Inputs arrive
#: as void pointers + element counts (int64 or float64 buffers, per the
#: spec manifest); outputs come back as (pointer, length) pairs the caller
#: must release through ``repro_free``.  Scalar returns use ``len`` with a
#: NULL pointer; a float64 scalar, in or out, fills its ``long long`` slot
#: bit for bit.  The ``repro_json_*`` functions are the daemon's JSON
#: array formatter and scanners (:mod:`repro.serve.jsontext`), a library
#: of its own that defines its own ``repro_free``; cffi resolves each
#: symbol on first use, so one declaration set serves both kinds of
#: library.
_CDEF = """
typedef struct { void* ptr; long long len; } rt_buf;
int repro_run(void** arrs, long long* lens, long long* scalars, rt_buf* out);
void repro_free(void* p);
long long repro_json_i64(const long long* v, long long n, char* out,
                         long long* len);
long long repro_json_f64(const double* v, long long n, char* out,
                         long long* len);
long long repro_json_scan_i64(const char* s, long long n, long long** out);
long long repro_json_scan_f64(const char* s, long long n, double** out);
"""

#: Error codes returned by ``repro_run`` (the ``RT_E*`` codes of
#: ``RUNTIME_H`` in c_emit),
#: mapped onto the exception the interpreted runtime would have raised.
_ERRNO = {
    1: MemoryError,
    2: KeyError,
    3: ValueError,
    4: OverflowError,
    5: RuntimeError,
}

#: Every compile: one unit into an object, through pipes, not temp files.
_CFLAGS = ("-O2", "-fPIC", "-std=c99", "-pipe", "-c")
#: The link that makes an inspector or formatter library of a unit's
#: object, and what the runtime object compiles with besides.
_LIBRARY = ("-shared",)
_OBJECT = ("-fvisibility=hidden",)


class CCompileError(RuntimeError):
    """A compile or link step of a C artifact failed; the message names
    the command and carries the compiler's stderr."""


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
def artifact_dir() -> Path:
    """The artifact directory: one per compiler tag, shared by every
    version of the package (:func:`_artifact_name`)."""
    root = os.environ.get("REPRO_CBACKEND_DIR") or \
        Path.home() / ".cache" / "repro-cbackend"
    return Path(root) / (compiler_version_tag() or "nocc")[:12]


def _artifact_name(source: str, flags: Sequence[str]) -> str:
    """``sha256`` of what builds an artifact: the compiler tag, the
    flags it compiles with and its source."""
    tag = compiler_version_tag() or "nocc"
    text = "\n".join((tag, *_CFLAGS, *flags, source))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


_FFI = None
_FFI_LOCK = threading.Lock()


def _ffi():
    """The one ``cffi.FFI`` every artifact is opened and called through.

    A library's cdata types belong to the FFI that opened it, so threads
    racing the first call (the daemon's formatter build and its first C
    conversion) must not each build one.
    """
    global _FFI
    if _FFI is None:
        with _FFI_LOCK:
            if _FFI is None:
                import cffi

                ffi = cffi.FFI()
                ffi.cdef(_CDEF)
                _FFI = ffi
    return _FFI


_BUILD_SECONDS = obs.histogram(
    "repro_cbackend_build_seconds",
    "C compiler invocations by step: compile (a unit into an object) "
    "or link (objects into a library)",
)


def _run_compiler(cmd: list[str], step: str, artifact: str) -> None:
    """Run one compiler command as span ``c.<step>``, observed in
    ``repro_cbackend_build_seconds{step}``; raise on failure."""
    start = time.perf_counter()
    with obs.span(f"c.{step}", category="compile", artifact=artifact):
        proc = subprocess.run(cmd, capture_output=True, text=True)
    _BUILD_SECONDS.observe(time.perf_counter() - start, step=step)
    if proc.returncode != 0:
        raise CCompileError(
            f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}"
        )


def _compile_artifact(
    c_source: str, path: Path, cc: str, link: Sequence[str] | None = None,
) -> None:
    """Build the artifact at ``path``, which does not exist yet.

    ``link=None`` builds the runtime object: one compile with
    ``_OBJECT``.  Otherwise a library: the unit compiles into an
    intermediate object, which a second ``cc`` call links (``_LIBRARY``)
    with the objects ``link`` names.  Every output is a fresh file named
    for this process and ``os.replace`` moves the result onto ``path``;
    the caller holds the artifact's locks, so no other build writes
    these names.  The .c file is published beside the artifact, for
    debugging, when it is absent; its name is its content's, so one on
    disk already holds this source.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    c_path = path.with_suffix(".c")
    if not c_path.exists():
        obs.atomic_write_text(c_path, c_source)
    tmp = f"{path}.{os.getpid()}.tmp"
    obj = tmp if link is None else f"{path.with_suffix('')}.{os.getpid()}.o"
    extra = _OBJECT if link is None else ()
    try:
        _run_compiler(
            [cc, *_CFLAGS, *extra, "-o", obj, str(c_path)], "compile",
            path.name,
        )
        if link is not None:
            _run_compiler(
                [cc, *_LIBRARY, "-o", tmp, obj, *link], "link", path.name
            )
        os.replace(tmp, path)
    finally:
        for leftover in (obj, tmp):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(leftover)


#: Process-wide memo of loaded shared objects keyed on the source text
#: itself — one dlopen per distinct translation unit per process.  A str
#: caches its hash, so a warm lookup neither encodes nor digests the
#: source; the sha256 that names the artifact runs only on a miss.
_LIB_MEMO: dict[str, object] = {}
_COMPILE_HIT = obs.counter(
    "repro_cbackend_compile_hit_total", "C artifacts served from a cache"
)
_COMPILE_MISS = obs.counter(
    "repro_cbackend_compile_miss_total", "C libraries compiled"
)
_RUNTIME_BUILD = obs.counter(
    "repro_cbackend_runtime_build_total",
    "C runtime objects compiled (not counted as compile misses)",
)

#: One lock per artifact path: threads racing to build it wait for one
#: build instead of each running the compiler (processes wait on a file
#: lock beside it).
_BUILD_LOCKS: dict[Path, threading.Lock] = {}


def _runtime_object(base: Path) -> tuple[Path, str]:
    """The runtime object inspector libraries in ``base`` link, and its
    source."""
    from repro.spf.codegen.c_emit import runtime_source

    source = runtime_source()
    return base / f"runtime-{_artifact_name(source, _OBJECT)}.o", source


def _build_once(path: Path, build) -> bool:
    """Run ``build()`` unless ``path`` exists; whether it ran.

    The threads of this process, then every process building into the
    same directory (``repro cache warm --jobs N``), take turns, so one
    build serves them all.
    """
    with _BUILD_LOCKS.setdefault(path, threading.Lock()):
        if path.exists():
            return False
        with file_lock(path):
            if path.exists():
                return False
            build()
            return True


def load_library(c_source: str, *, runtime: bool = False):
    """dlopen the compiled artifact for ``c_source``, compiling on miss.

    ``runtime=True`` links the runtime object (an inspector unit, which
    embeds the runtime header), building it first if it is not on disk;
    the artifact's name then covers the object's too.
    ``repro_cbackend_compile_hit_total`` counts artifacts served from
    disk (or this process's memo);
    ``repro_cbackend_compile_miss_total`` counts library compiles and
    ``repro_cbackend_runtime_build_total`` runtime object builds — CI
    pins warm runs on the miss counter.
    """
    lib = _LIB_MEMO.get(c_source)
    if lib is not None:
        _COMPILE_HIT.inc()
        return lib
    base = artifact_dir()
    obj, obj_source = _runtime_object(base) if runtime else (None, "")
    named = c_source + obj.name if obj else c_source
    so_path = base / f"{_artifact_name(named, _LIBRARY)}.so"

    def build():
        _COMPILE_MISS.inc()
        cc = compiler_path()
        if cc is None:
            raise BackendUnavailableError(
                "c", "no C compiler found (checked $CC, cc, gcc, clang)"
            )
        if obj and _build_once(
            obj, lambda: _compile_artifact(obj_source, obj, cc)
        ):
            _RUNTIME_BUILD.inc()
        _compile_artifact(
            c_source, so_path, cc, link=(str(obj),) if obj else ()
        )

    cached = not _build_once(so_path, build)
    if cached:
        _COMPILE_HIT.inc()
    with obs.span(
        "c.load", category="compile", artifact=so_path.name, cached=cached
    ):
        lib = _ffi().dlopen(str(so_path))
    _LIB_MEMO[c_source] = lib
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
    ``floats`` — the positions of the float64 scalars among them,
    ``returns`` — (name, "i8"|"f8"|"scalar"|"fscalar"), ``c`` — the
    translation unit.  A container's typed array, or a contiguous numpy
    array, of the declared dtype crosses the boundary zero-copy (the
    generated C reads inputs through ``const`` pointers); lists and
    mismatched dtypes are converted once at the edge.
    """
    import numpy as np

    from repro.runtime.storage import INDEX, VALUE

    lib = load_library(spec["c"], runtime=True)
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
    floats = spec["floats"]
    as_double = ffi.cast("double*", scalars)
    for j, value in enumerate(scalar_args):
        if j in floats:
            as_double[j] = value
        else:
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
        if kind == "fscalar":
            slot = ffi.addressof(out[i], "len")
            result[name] = ffi.cast("double*", slot)[0]
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

    The wrapper is ordinary inspector source, and only needs ``__C_RUN``
    (provided by :meth:`CBackend.namespace`) at exec time.  The .so
    compile happens lazily on first call.
    """
    spec = {
        "name": name,
        "arrays": tuple(emitted.array_params),
        "scalars": tuple(emitted.scalar_params),
        "floats": emitted.float_scalars,
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


def _wrapper_spec(source: str) -> dict:
    """The manifest literal :func:`_wrapper_source` put first in ``source``."""
    return ast.literal_eval(ast.parse(source).body[0].value)


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
            "counting-sort-rank",
            "positional-lookup",
        ),
        requires=("cffi", "numpy"),
    )
    differential_references = ("python", "numpy")
    # Compiled per-element work costs ~1/500 of an interpreted element and
    # ~1/5 of a vectorized one; sorts are counting or radix sorts plus a
    # rank array.  The floor is the FFI dispatch and input staging, so
    # tiny matrices still prefer the tierless paths.
    cost_floor = (0.05, 5.0)
    cost_weights = {
        "passes": (0.02, 0.002),
        "sort": (0.08, 0.004),
        "set": (0.02, 0.002),
        "bucket_perm": (0.01, 0.001),
        "bsearch": (0.02, 0.004),
        "linear_search": (0.08, 0.002),
    }

    def require(self) -> None:
        """Raise naming every missing requirement, not just the first."""
        missing = []
        try:
            import cffi  # noqa: F401
        except ImportError:
            missing.append("cffi is not installed (pip install repro[native])")
        try:
            import numpy  # noqa: F401
        except ImportError:
            missing.append("numpy is not installed")
        if compiler_path() is None:
            missing.append("no C compiler found (checked $CC, cc, gcc, clang)")
        if missing:
            raise BackendUnavailableError("c", "; ".join(missing))

    def lower(
        self,
        program,
        name: str,
        params: Sequence[str],
        returns: Sequence[str],
        symtab,
    ) -> Lowering:
        from repro.spf.codegen.c_emit import emit_c

        with obs.span("c.codegen", category="codegen", inspector=name):
            emitted = emit_c(program, name, list(params), list(returns), symtab)
        return Lowering(source=_wrapper_source(name, list(params), emitted))

    def prepare(self, conversion) -> None:
        """Build the library the first call of ``conversion`` loads, so
        that call compiles nothing (``repro cache warm``)."""
        load_library(_wrapper_spec(conversion.source)["c"], runtime=True)

    def namespace(self) -> dict:
        # The wrapper needs __C_RUN; the base helpers ride along.
        from repro.runtime import executor

        namespace = dict(executor._BASE_NAMESPACE)
        namespace["__C_RUN"] = _c_run
        return namespace
