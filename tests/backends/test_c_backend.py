"""The compiled-C tier: artifact cache, availability gating, coverage.

The compile-cache tests pin the .so artifact store's conventions:
content-hashed reuse across processes, whatever their hash seed, and
across package code versions; a cache miss when the compiler version
tag or a compile flag changes.  The build-discipline tests pin how an
artifact is built: a library is a compile and a link, the runtime object
a compile alone, every compiler output is a fresh file, and a failed
step raises naming its command and leaves no temp file behind.  The
availability tests pin the graceful-degradation contract: a missing
soft dependency raises the registry's standard
:class:`BackendUnavailableError` from ``require()``, naming every
missing one, while every entry point (``convert``, the planner, the
fuzzer) silently falls back a tier.
"""

import hashlib
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

from repro import COOMatrix, COOTensor3D, convert
from repro.backends import (
    BackendUnavailableError,
    available_backend,
    c_backend,
    get_backend,
)
from repro.formats import get_format
from repro.obs import METRICS
from repro.obs import span as obs_span
from repro.synthesis import synthesize

from tests.sweep import synthesized
from tests.tiers import needs_c

np = pytest.importorskip("numpy")

SRC_DIR = str(Path(c_backend.__file__).parents[2])


def _counter(name: str, **labels) -> int:
    return METRICS.counter(name).value(**labels)


def _matrix() -> COOMatrix:
    return COOMatrix(3, 4, [0, 1, 2, 2], [1, 0, 2, 3], [1.0, 2.0, 3.0, 4.0])


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """An isolated artifact cache; the dlopen memo is cleared around it."""
    monkeypatch.setenv("REPRO_CBACKEND_DIR", str(tmp_path))
    c_backend.clear_lib_memo()
    yield tmp_path
    c_backend.clear_lib_memo()


def _run_c_conversion():
    """Synthesize COO->CSR on the C tier and execute it once."""
    from repro import container_to_env

    conv = synthesize(get_format("COO"), get_format("CSR"), backend="c")
    env = container_to_env(_matrix())
    out = conv(**{p: env[p] for p in conv.params})
    return conv, out


@needs_c
class TestCompileCache:
    def test_miss_then_disk_hit(self, cache_dir):
        miss0 = _counter("repro_cbackend_compile_miss_total")
        hit0 = _counter("repro_cbackend_compile_hit_total")
        _run_c_conversion()
        assert _counter("repro_cbackend_compile_miss_total") == miss0 + 1
        # Artifact + its .c source are published in the partition dir.
        sos = list(cache_dir.glob("*/*.so"))
        assert len(sos) == 1
        assert sos[0].with_suffix(".c").exists()
        assert c_backend.artifact_dir() == sos[0].parent
        # A fresh dlopen (new process simulated by clearing the memo)
        # must be served from disk: hit, no second compile.
        c_backend.clear_lib_memo()
        _run_c_conversion()
        assert _counter("repro_cbackend_compile_miss_total") == miss0 + 1
        assert _counter("repro_cbackend_compile_hit_total") > hit0

    def test_memo_hit_without_reload(self, cache_dir):
        _run_c_conversion()
        hit0 = _counter("repro_cbackend_compile_hit_total")
        miss0 = _counter("repro_cbackend_compile_miss_total")
        _run_c_conversion()  # same translation unit, memoized dlopen
        assert _counter("repro_cbackend_compile_hit_total") == hit0 + 1
        assert _counter("repro_cbackend_compile_miss_total") == miss0

    def test_warm_call_skips_the_source_hash(self, cache_dir, monkeypatch):
        _run_c_conversion()

        def no_hash(*_args, **_kwargs):
            raise AssertionError("a warm load_library hashed its source")

        monkeypatch.setattr(
            c_backend, "hashlib", types.SimpleNamespace(sha256=no_hash)
        )
        hit0 = _counter("repro_cbackend_compile_hit_total")
        _, out = _run_c_conversion()
        assert _counter("repro_cbackend_compile_hit_total") == hit0 + 1
        assert list(out["rowptr"]) == [0, 1, 2, 4]

    def test_cross_process_artifact_reuse(self, cache_dir):
        script = (
            "import json\n"
            "from repro import COOMatrix, convert\n"
            "from repro.obs import METRICS\n"
            "m = COOMatrix(3, 4, [0, 1, 2, 2], [1, 0, 2, 3],\n"
            "              [1.0, 2.0, 3.0, 4.0])\n"
            "csr = convert(m, 'CSR', backend='c')\n"
            "assert csr.rowptr.tolist() == [0, 1, 2, 4], csr.rowptr\n"
            "print(json.dumps({o: METRICS.counter(\n"
            "    f'repro_cbackend_compile_{o}_total').value()\n"
            "    for o in ('hit', 'miss')}))\n"
        )

        def run_once() -> dict:
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={
                    **dict(__import__("os").environ),
                    "PYTHONPATH": SRC_DIR,
                    "REPRO_CBACKEND_DIR": str(cache_dir),
                },
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout.splitlines()[-1])

        cold = run_once()
        assert cold["miss"] >= 1
        warm = run_once()
        assert warm["miss"] == 0
        assert warm["hit"] >= 1

    def test_code_version_bump_compiles_nothing(self, cache_dir,
                                               monkeypatch):
        # Artifacts are named by what builds them, not by the package's
        # version: a checkout that prints the same C reuses them.
        from repro import codeversion

        _run_c_conversion()
        artifacts = set(cache_dir.rglob("*"))
        miss0 = _counter("repro_cbackend_compile_miss_total")
        builds0 = _counter("repro_cbackend_runtime_build_total")
        monkeypatch.setattr(codeversion, "_CACHED_HASH", "0" * 64)
        c_backend.clear_lib_memo()
        _, out = _run_c_conversion()
        assert list(out["rowptr"]) == [0, 1, 2, 4]
        assert _counter("repro_cbackend_compile_miss_total") == miss0
        assert _counter("repro_cbackend_runtime_build_total") == builds0
        assert set(cache_dir.rglob("*")) == artifacts

    @pytest.mark.parametrize("flags", ["_CFLAGS", "_LIBRARY", "_OBJECT"])
    def test_miss_on_changed_flags(self, cache_dir, monkeypatch, flags):
        # Every flag is in every artifact's name: the runtime object's
        # flags rename the object and so the libraries linking it.
        _run_c_conversion()
        sos = set(cache_dir.glob("*/*.so"))
        miss0 = _counter("repro_cbackend_compile_miss_total")
        builds0 = _counter("repro_cbackend_runtime_build_total")
        monkeypatch.setattr(
            c_backend, flags, getattr(c_backend, flags) + ("-DREPRO_X",)
        )
        c_backend.clear_lib_memo()
        _, out = _run_c_conversion()
        assert list(out["rowptr"]) == [0, 1, 2, 4]
        assert _counter("repro_cbackend_compile_miss_total") == miss0 + 1
        assert _counter("repro_cbackend_runtime_build_total") == builds0 + (
            flags != "_LIBRARY"
        )
        assert len(set(cache_dir.glob("*/*.so")) - sos) == 1

    def test_miss_on_compiler_change(self, cache_dir, monkeypatch):
        _run_c_conversion()
        miss0 = _counter("repro_cbackend_compile_miss_total")
        monkeypatch.setattr(c_backend, "_COMPILER_TAG", "f" * 16)
        c_backend.clear_lib_memo()
        _run_c_conversion()
        assert _counter("repro_cbackend_compile_miss_total") == miss0 + 1
        assert c_backend.artifact_dir().name.endswith("f" * 12)
        assert list(c_backend.artifact_dir().glob("runtime-*.o"))

    def test_changed_runtime_source_rebuilds(self, cache_dir, monkeypatch):
        # A library's name covers the runtime object's, which hashes the
        # object's source: a changed runtime builds a new object and new
        # libraries instead of serving ones linked against the old one.
        from repro.spf.codegen import c_emit

        _, before = _run_c_conversion()
        (old_obj,) = cache_dir.glob("*/runtime-*.o")
        (old_so,) = cache_dir.glob("*/*.so")
        monkeypatch.setattr(
            c_emit, "RUNTIME_C", c_emit.RUNTIME_C + "\n/* changed */\n"
        )
        c_backend.clear_lib_memo()
        builds0 = _counter("repro_cbackend_runtime_build_total")
        miss0 = _counter("repro_cbackend_compile_miss_total")
        _, out = _run_c_conversion()
        assert list(out["rowptr"]) == [0, 1, 2, 4]
        assert {k: list(v) for k, v in out.items()} == {
            k: list(v) for k, v in before.items()
        }
        assert _counter("repro_cbackend_runtime_build_total") == builds0 + 1
        assert _counter("repro_cbackend_compile_miss_total") == miss0 + 1
        objs = set(cache_dir.glob("*/runtime-*.o"))
        sos = set(cache_dir.glob("*/*.so"))
        assert len(objs) == 2 and old_obj in objs
        assert len(sos) == 2 and old_so in sos
        (new_obj,) = objs - {old_obj}
        assert "/* changed */" in new_obj.with_suffix(".c").read_text()

    def test_library_exports_only_the_abi(self, cache_dir):
        # The runtime object's routines are hidden in every library that
        # links it: each inspector library exports repro_run and
        # repro_free, and no rt_* symbol.
        import ctypes
        import re

        from repro.spf.codegen import c_emit

        _run_c_conversion()
        (so,) = cache_dir.glob("*/*.so")
        lib = ctypes.CDLL(str(so))
        assert lib.repro_run and lib.repro_free
        names = set(re.findall(r"\b(rt_\w+)\(", c_emit.runtime_source()))
        assert {"rt_sort_rows", "rt_olist_finalize", "rt_alloc_i64"} <= names
        for name in sorted(names):
            with pytest.raises(AttributeError):
                getattr(lib, name)

    def test_formatter_links_no_runtime_object(self, cache_dir):
        # The daemon's JSON formatter is a library of its own: its build
        # neither links nor waits for the inspectors' runtime object.
        from repro.serve import jsontext

        builds0 = _counter("repro_cbackend_runtime_build_total")
        lib = c_backend.load_library(jsontext.C_SOURCE)
        assert lib.repro_json_i64
        assert not list(cache_dir.glob("*/*.o"))
        assert _counter("repro_cbackend_runtime_build_total") == builds0
        # Named, as every artifact is, by the compiler tag, the flags
        # and its source.
        (so,) = cache_dir.glob("*/*.so")
        named = "\n".join((
            c_backend.compiler_version_tag(), *c_backend._CFLAGS,
            *c_backend._LIBRARY, jsontext.C_SOURCE,
        ))
        digest = hashlib.sha256(named.encode()).hexdigest()
        assert so.name == f"{digest[:24]}.so"

    def test_warmed_pair_needs_no_compiler(self, cache_dir):
        # `repro cache warm` builds each pair's library through the loader
        # the first call uses, so a later process compiles nothing, even
        # under another hash seed: CSR->BCSR's copy once printed its lets
        # in set order, so its library name followed PYTHONHASHSEED, and
        # seeds 0 and 2 printed it differently.
        import os

        def run(script: str, hash_seed: str) -> dict:
            proc = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env={
                    **os.environ,
                    "PYTHONPATH": SRC_DIR,
                    "PYTHONHASHSEED": hash_seed,
                    "REPRO_CBACKEND_DIR": str(cache_dir),
                },
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout.splitlines()[-1])

        # convert() reads the sorted matrix below as SCOO.
        summary = run(
            "import json\n"
            "from repro.synthesis.cache import warm\n"
            "print(json.dumps(warm(pairs=[('SCOO', 'CSR'),\n"
            "                             ('CSR', 'BCSR')])))\n",
            "0",
        )
        assert summary == {"synthesized": 2, "unsynthesizable": 0,
                           "unbuilt": None}
        assert len(list(cache_dir.glob("*/*.so"))) == 2
        counts = run(
            "import json\n"
            "from repro import COOMatrix, convert\n"
            "from repro.obs import METRICS\n"
            "m = COOMatrix(3, 4, [0, 1, 2, 2], [1, 0, 2, 3],\n"
            "              [1.0, 2.0, 3.0, 4.0])\n"
            "csr = convert(m, 'CSR', backend='c')\n"
            "assert csr.rowptr.tolist() == [0, 1, 2, 4], csr.rowptr\n"
            "bcsr = convert(csr, 'BCSR', backend='c')\n"
            "assert bcsr.to_dense() == m.to_dense()\n"
            "print(json.dumps({n: METRICS.counter(n).value() for n in (\n"
            "    'repro_cbackend_compile_miss_total',\n"
            "    'repro_cbackend_compile_hit_total')}))\n",
            "2",
        )
        assert counts["repro_cbackend_compile_miss_total"] == 0
        assert counts["repro_cbackend_compile_hit_total"] >= 1


def _spy_compiler(monkeypatch) -> list[list[str]]:
    """Record every compiler command, asserting that its ``-o`` target
    does not exist when it runs: no build truncates or replaces a file."""
    commands = []
    run = subprocess.run

    def spy(cmd, *args, **kwargs):
        if "-o" in cmd:
            target = Path(cmd[cmd.index("-o") + 1])
            assert not target.exists(), f"{target} exists before {cmd}"
            commands.append(list(cmd))
        return run(cmd, *args, **kwargs)

    monkeypatch.setattr(c_backend.subprocess, "run", spy)
    return commands


def _build_counts() -> dict[str, int]:
    """``repro_cbackend_build_seconds`` observations by step."""
    hist = METRICS.histogram("repro_cbackend_build_seconds")
    return {
        s["labels"]["step"]: s["value"]["count"]
        for s in hist.snapshot()["samples"]
    }


def _published(base: Path) -> bool:
    """Whether ``base`` holds only sources, libraries, runtime objects
    and lock files: no temp file and no intermediate object."""
    return all(
        p.suffix in (".c", ".so", ".lock")
        or (p.name.startswith("runtime-") and p.suffix == ".o")
        for p in base.iterdir()
    )


@needs_c
class TestBuildDiscipline:
    """A library is a ``-pipe -c`` compile and a ``-shared`` link, each
    into a fresh file; the runtime object is the compile alone."""

    def test_every_output_is_a_fresh_file(self, cache_dir, monkeypatch):
        commands = _spy_compiler(monkeypatch)
        counts0 = _build_counts()
        _run_c_conversion()
        cc = c_backend.compiler_path()
        (obj,) = cache_dir.glob("*/runtime-*.o")
        (so,) = cache_dir.glob("*/*.so")
        runtime, unit, link = commands
        # Each command is the flag tuples that name the artifacts, an
        # output and its inputs: no flag reaches the compiler unnamed.
        assert {"-pipe", "-c"} <= set(runtime) & set(unit)
        assert runtime[:-3] == [cc, *c_backend._CFLAGS, *c_backend._OBJECT]
        assert runtime[-3::2] == ["-o", str(obj.with_suffix(".c"))]
        assert unit[:-3] == [cc, *c_backend._CFLAGS]
        assert unit[-3::2] == ["-o", str(so.with_suffix(".c"))]
        linked = link[link.index("-o") + 1]
        assert "-c" not in link and "-shared" in link
        assert link == [cc, *c_backend._LIBRARY, "-o", linked,
                        unit[-2], str(obj)]
        # Outputs sit beside the artifacts and are gone once published.
        for out in (runtime[-2], unit[-2], linked):
            assert Path(out).parent == so.parent
            assert not Path(out).exists()
        assert _published(so.parent)
        counts = _build_counts()
        assert counts.get("compile", 0) == counts0.get("compile", 0) + 2
        assert counts.get("link", 0) == counts0.get("link", 0) + 1

    def test_compile_and_link_are_sibling_spans(self, cache_dir):
        from repro.obs import TRACER

        TRACER.clear()
        with TRACER.forced(True), obs_span("harness"):
            _run_c_conversion()
        (root,) = TRACER.finished_roots()
        steps = [(s.name, s.attrs["artifact"]) for s in root.walk()
                 if s.name in ("c.compile", "c.link")]
        (obj,) = cache_dir.glob("*/runtime-*.o")
        (so,) = cache_dir.glob("*/*.so")
        assert steps == [("c.compile", obj.name), ("c.compile", so.name),
                         ("c.link", so.name)]
        TRACER.clear()

    def test_pool_warm_reports_build_seconds(self, cache_dir, tmp_path):
        # `repro cache warm --jobs 2` builds in worker processes; their
        # compile and link timings reach the parent's stats file, which
        # CI's warm step prints.
        import os

        stats = tmp_path / "warm.json"
        proc = subprocess.run(
            [sys.executable, "-c",
             "from repro.synthesis.cache import warm\n"
             "print(warm(jobs=2, pairs=[('SCOO', 'CSR'), ('CSR', 'CSC')]))\n"],
            capture_output=True,
            text=True,
            env={
                **os.environ,
                "PYTHONPATH": SRC_DIR,
                "REPRO_CBACKEND_DIR": str(cache_dir),
                "REPRO_CACHE_STATS_FILE": str(stats),
            },
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(stats.read_text())["metrics"]
        samples = metrics["repro_cbackend_build_seconds"]["samples"]
        assert {s["labels"]["step"]: s["value"]["count"]
                for s in samples} == {"compile": 3, "link": 2}
        assert all(s["value"]["sum"] > 0 for s in samples)
        miss = metrics["repro_cbackend_compile_miss_total"]["samples"]
        assert sum(s["value"] for s in miss) == 2
        assert _published(c_backend.artifact_dir())

    def test_rejected_unit_leaves_nothing_behind(self, cache_dir):
        bad = "int repro_run(void) { return }\n"
        with pytest.raises(c_backend.CCompileError) as exc:
            c_backend.load_library(bad)
        message = str(exc.value)
        cc = c_backend.compiler_path()
        assert message.startswith(f"{cc} {' '.join(c_backend._CFLAGS)} -o ")
        assert "expected expression" in message  # the compiler's stderr
        base = c_backend.artifact_dir()
        assert sorted(p.suffix for p in base.iterdir()) == [".c", ".lock"]
        # The source stays for debugging; a valid build then succeeds.
        _, out = _run_c_conversion()
        assert list(out["rowptr"]) == [0, 1, 2, 4]
        assert _published(base)

    def test_corrupt_runtime_object_fails_the_link(self, cache_dir):
        obj, _source = c_backend._runtime_object(c_backend.artifact_dir())
        obj.parent.mkdir(parents=True)
        obj.write_bytes(b"not an object file\n")
        with pytest.raises(c_backend.CCompileError) as exc:
            _run_c_conversion()
        cc = c_backend.compiler_path()
        link = f"{cc} {' '.join(c_backend._LIBRARY)} -o "
        assert str(exc.value).startswith(link)
        assert str(obj) in str(exc.value)
        assert not list(obj.parent.glob("*.so"))
        assert _published(obj.parent)


@needs_c
class TestExecution:
    def test_matches_python_tier(self, cache_dir):
        m = _matrix()
        a = convert(m, "CSR", backend="python")
        b = convert(m, "CSR", backend="c")
        assert (a.rowptr, a.col, a.val) == (b.rowptr, b.col, b.val)

    def test_error_code_maps_to_overflow(self, cache_dir):
        # 3-D Morton keys are two 63-bit words in C, so a coordinate must
        # stay below 2**42; RT_ERANGE must surface as OverflowError, not
        # as a wrong answer.
        from repro import container_to_env

        conv = synthesize(
            get_format("COO3D"), get_format("MCOO3"), backend="c"
        )
        big = COOTensor3D((2**42 + 1, 2, 2), [2**42], [0], [0], [1.0])
        env = container_to_env(big)
        with pytest.raises(OverflowError):
            conv(**{p: env[p] for p in conv.params})

    @pytest.mark.parametrize("container,dst", [
        (COOTensor3D((2**22, 8, 8), [0, 5, 2**22 - 1], [3, 7, 1],
                     [6, 0, 2], [1.0, 2.0, 3.0]), "MCOO3"),
        (COOMatrix(2**31 + 2, 4, [0, 3, 2**31 + 1], [3, 2, 0],
                   [1.0, 2.0, 3.0]), "MCOO"),
        # Keys whose order only the high word decides: (2**21, 0, 0) and
        # (0, 2**31) sort after (1, 1, 1) and (1, 1).
        (COOTensor3D((2**41, 2, 2), [0, 1, 2**21, 2**41 - 1],
                     [0, 1, 0, 1], [1, 1, 0, 0], [1.0, 2.0, 3.0, 4.0]),
         "MCOO3"),
        (COOMatrix(2**40, 2**40, [0, 1, 2**39], [2**31, 1, 2**38],
                   [1.0, 2.0, 3.0]), "MCOO"),
    ], ids=["3d-2**22", "2d-2**31+1", "3d-high-word", "2d-high-word"])
    def test_morton_keys_take_wide_coordinates(self, cache_dir, container,
                                               dst):
        # C Morton keys are two 63-bit words, high word first: 2-D takes
        # every int64 coordinate, 3-D every coordinate below 2**42.
        outputs = [vars(convert(container, dst, backend=backend))
                   for backend in ("python", "numpy", "c")]
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("container,dst", [
        (COOMatrix(2**40, 2**40, [2**40 - 1, 7, 2**39], [3, 2**40 - 2, 5],
                   [1.0, 2.0, 3.0]), "SCOO"),
        (COOTensor3D((2**40,) * 3, [2**40 - 1, 7, 2**39],
                     [3, 2**40 - 2, 5], [9, 2**38, 0], [1.0, 2.0, 3.0]),
         "SCOO3D"),
        (COOMatrix(4, 4, [2, 9, 0, -1], [1, 0, -1, 3],
                   [1.0, 2.0, 3.0, 4.0]), "SCOO"),
    ], ids=["dims-2**40", "dims-2**40-3d", "coords-out-of-range"])
    def test_key_ranges_never_size_or_index_counts(self, cache_dir,
                                                   container, dst):
        # A declared dimension sizes a counting pass only when it is small
        # next to the list, and a key outside its range (validation off)
        # sends the list to the radix path instead of indexing counts.
        assert "OrderedList(" in synthesize(
            get_format(container.format_name), get_format(dst)
        ).source
        expected = vars(convert(container, dst, backend="python",
                                validate="off"))
        assert vars(convert(container, dst, backend="c",
                            validate="off")) == expected

    def test_native_cost_below_numpy_with_stats(self, cache_dir):
        import dataclasses

        from repro.planner import matrix_stats

        c_conv = synthesize(get_format("COO"), get_format("CSR"), backend="c")
        np_conv = synthesize(
            get_format("COO"), get_format("CSR"), backend="numpy"
        )
        big = dataclasses.replace(
            matrix_stats(_matrix()), nrows=300_000, ncols=400_000, nnz=500_000
        )
        assert get_backend("c").estimate_cost(c_conv, big) < get_backend(
            "numpy"
        ).estimate_cost(np_conv, big)


def test_racing_first_calls_share_one_ffi(monkeypatch):
    # A library's cdata types belong to the FFI that opened it.  When the
    # daemon's formatter build and its first C conversion each built one,
    # later calls passed one FFI's buffers to a library opened through
    # the other and failed with a TypeError.
    import threading

    pytest.importorskip("cffi")
    monkeypatch.setattr(c_backend, "_FFI", None)
    barrier = threading.Barrier(8)
    seen = []

    def first_call():
        barrier.wait()
        seen.append(c_backend._ffi())

    threads = [threading.Thread(target=first_call) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 8
    assert len({id(ffi) for ffi in seen}) == 1


@needs_c
def test_racing_first_calls_build_one_runtime_object(cache_dir):
    # Threads racing the first C calls of a fresh directory wait for one
    # build of the runtime object (and of the library) and all succeed.
    import threading

    from repro import container_to_env

    conv = synthesize(get_format("COO"), get_format("CSR"), backend="c")
    env = container_to_env(_matrix())
    builds0 = _counter("repro_cbackend_runtime_build_total")
    miss0 = _counter("repro_cbackend_compile_miss_total")
    barrier = threading.Barrier(8)
    outs, errors = [], []

    def first_call():
        barrier.wait()
        try:
            outs.append(conv(**{p: env[p] for p in conv.params}))
        except Exception as err:  # surfaced by the asserts below
            errors.append(err)

    threads = [threading.Thread(target=first_call) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert [list(out["rowptr"]) for out in outs] == [[0, 1, 2, 4]] * 8
    (obj,) = cache_dir.glob("*/runtime-*.o")
    assert obj.read_bytes()[:4] == b"\x7fELF"
    assert not list(cache_dir.glob("*/*.tmp"))
    assert _counter("repro_cbackend_runtime_build_total") == builds0 + 1
    assert _counter("repro_cbackend_compile_miss_total") == miss0 + 1


@needs_c
def test_racing_processes_build_one_runtime_object(cache_dir):
    # Two processes compiling different units into one fresh directory
    # (`repro cache warm --jobs 2`) wait for one runtime object build.
    script = (
        "import json, os, sys, time\n"
        "from repro import container_to_env\n"
        "from repro.formats import get_format\n"
        "from repro.obs import METRICS\n"
        "from repro.runtime import COOMatrix\n"
        "from repro.synthesis import synthesize\n"
        "dst, ready, go = sys.argv[1:]\n"
        "conv = synthesize(get_format('COO'), get_format(dst),\n"
        "                  backend='c')\n"
        "env = container_to_env(COOMatrix(3, 4, [0, 1, 2, 2],\n"
        "                                 [1, 0, 2, 3], [1.0, 2.0, 3.0, 4.0]))\n"
        "open(ready, 'w').close()\n"
        "while not os.path.exists(go):\n"
        "    time.sleep(0.001)\n"
        "conv(**{p: env[p] for p in conv.params})\n"
        "print(json.dumps({n: METRICS.counter(f'repro_cbackend_{n}_total')\n"
        "    .value() for n in ('runtime_build', 'compile_miss')}))\n"
    )
    env = {
        **dict(__import__("os").environ),
        "PYTHONPATH": SRC_DIR,
        "REPRO_CBACKEND_DIR": str(cache_dir),
    }
    go = cache_dir / "go"
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script, dst, str(cache_dir / dst), str(go)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env,
        )
        for dst in ("CSR", "CSC")
    ]
    try:
        import time

        deadline = time.monotonic() + 120
        while not all((cache_dir / d).exists() for d in ("CSR", "CSC")):
            assert time.monotonic() < deadline, "workers never got ready"
            assert all(p.poll() is None for p in procs)
            time.sleep(0.01)
        go.touch()
        results = [p.communicate(timeout=120) for p in procs]
    finally:
        for p in procs:
            p.kill()
    assert [p.returncode for p in procs] == [0, 0], results
    counts = [json.loads(out.splitlines()[-1]) for out, _err in results]
    assert [c["compile_miss"] for c in counts] == [1, 1], counts
    assert sum(c["runtime_build"] for c in counts) == 1, counts
    assert len(list(cache_dir.glob("*/runtime-*.o"))) == 1


@needs_c
def test_sweep_runs_compiled_without_fallback():
    # Every conversion of the sweep (library pairs, Figure 3 binary
    # searches, random compositions) lowers to a compiled wrapper: the C
    # tier has no interpreted fallback.
    labels = [label for label, conversion in synthesized("c")
              if not conversion.source.startswith("__C_SPEC_")]
    assert labels == []


@needs_c
def test_sweep_listing_is_the_compiled_unit():
    # `--c` prints the unit the C tier compiles, minus the runtime header
    # every unit embeds after its first line.
    from repro.spf.codegen.c_emit import RUNTIME_H

    for label, conversion in synthesized("c"):
        head, _, rest = conversion.c_source.partition("\n")
        unit = c_backend._wrapper_spec(conversion.source)["c"]
        assert f"{head}\n{RUNTIME_H}{rest}" == unit, label


@needs_c
def test_sweep_ranks_without_hashing():
    # Every rank lookup on the C tier reads a position vector the replay
    # pass licensed: no translation unit of the sweep hashes coordinates.
    import ast

    ranked = 0
    for label, conversion in synthesized("c"):
        spec = conversion.source.split(" = ", 1)[1].split("\n", 1)[0]
        unit = ast.literal_eval(spec)["c"]
        assert "hash" not in unit and "rt_olist_lookup" not in unit, label
        ranked += "RT_CK(rt_olist_rank(" in unit
    assert ranked > 0


class TestAvailability:
    def test_cffi_absent_raises_registry_error(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "cffi", None)
        with pytest.raises(BackendUnavailableError) as exc:
            get_backend("c").require()
        assert exc.value.backend == "c"
        assert "cffi" in exc.value.reason
        assert isinstance(exc.value, ValueError)  # registry's standard type

    def test_no_compiler_raises_registry_error(self, monkeypatch):
        # A set-but-missing $CC is authoritative: the backend must report
        # unavailable instead of silently picking another compiler.
        monkeypatch.setenv("CC", "/nonexistent/cc")
        monkeypatch.setattr(c_backend, "_COMPILER_TAG", None)
        with pytest.raises(BackendUnavailableError) as exc:
            get_backend("c").require()
        assert "compiler" in exc.value.reason

    def test_available_backend_degrades_to_numpy(self, monkeypatch):
        monkeypatch.setenv("CC", "/nonexistent/cc")
        monkeypatch.setattr(c_backend, "_COMPILER_TAG", None)
        pair = {"requested": "c", "effective": "numpy"}
        fallback0 = _counter("repro_backend_fallback_total", **pair)
        assert available_backend("c").name == "numpy"
        assert _counter("repro_backend_fallback_total", **pair) == fallback0 + 1

    def test_convert_degrades_instead_of_failing(self, monkeypatch):
        monkeypatch.setenv("CC", "/nonexistent/cc")
        monkeypatch.setattr(c_backend, "_COMPILER_TAG", None)
        m = _matrix()
        csr = convert(m, "CSR", backend="c")
        ref = convert(m, "CSR", backend="python")
        assert (csr.rowptr, csr.col, csr.val) == (ref.rowptr, ref.col, ref.val)

    def test_warm_without_compiler_says_why(self, tmp_path, monkeypatch):
        # Without a toolchain `cache warm` still synthesizes, builds
        # nothing and reports why.
        from repro.synthesis.cache import warm

        monkeypatch.setenv("CC", "/nonexistent/cc")
        monkeypatch.setattr(c_backend, "_COMPILER_TAG", None)
        monkeypatch.setenv("REPRO_CBACKEND_DIR", str(tmp_path / "cbackend"))
        summary = warm(pairs=[("SCOO", "CSR")])
        assert summary["synthesized"] == 1
        assert "compiler" in summary["unbuilt"]
        assert not (tmp_path / "cbackend").exists()

    def test_fuzz_records_skip_reason(self, monkeypatch):
        import importlib

        fuzz_mod = importlib.import_module("repro.verify.fuzz")
        monkeypatch.setenv("CC", "/nonexistent/cc")
        monkeypatch.setattr(c_backend, "_COMPILER_TAG", None)
        report = fuzz_mod.fuzz(
            cases=2, seed=0, backends=("python", "c"), shrink=False
        )
        assert report.ok
        skips = {s["backend"]: s["reason"] for s in report.skipped_backends}
        assert "c" in skips and "compiler" in skips["c"]
        assert "skipped" in report.summary()
        assert report.to_dict()["skipped_backends"]

    def test_fuzz_with_no_available_backend_fails(self, monkeypatch, capsys):
        # A run that checks nothing must not read as a pass: not from
        # fuzz(), not from fuzz_random_formats(), not at the command line.
        from repro.__main__ import main
        from repro.verify import fuzz, fuzz_random_formats

        monkeypatch.setenv("CC", "/nonexistent/cc")
        monkeypatch.setattr(c_backend, "_COMPILER_TAG", None)
        for report in (fuzz(cases=2, seed=0, backends=("c",)),
                       fuzz_random_formats(2, seed=0, backends=("c",))):
            assert not report.ok
            assert report.cases_run == 0
            assert [f.stage for f in report.failures] == ["availability"]
            assert [s["backend"] for s in report.skipped_backends] == ["c"]
        assert main(["fuzz", "--backend", "c", "--cases", "2"]) == 1
        assert "nothing was checked" in capsys.readouterr().out


class TestCompilerProbe:
    """compiler_path() is memoized per ($CC, $PATH), never across them."""

    @pytest.fixture
    def probes(self, monkeypatch):
        calls = []
        real_which = c_backend.shutil.which

        def which(name, *args, **kwargs):
            calls.append(name)
            return real_which(name, *args, **kwargs)

        monkeypatch.setattr(c_backend.shutil, "which", which)
        monkeypatch.setattr(c_backend, "_COMPILER_PATHS", {})
        return calls

    def test_repeat_calls_probe_once(self, monkeypatch, probes, tmp_path):
        fake = tmp_path / "cc"
        fake.write_text("#!/bin/sh\n")
        fake.chmod(0o755)
        monkeypatch.delenv("CC", raising=False)
        monkeypatch.setenv("PATH", str(tmp_path))
        assert c_backend.compiler_path() == str(fake)
        probed = len(probes)
        assert c_backend.compiler_path() == str(fake)
        assert len(probes) == probed

    def test_nonexistent_cc_takes_effect(self, monkeypatch, probes,
                                         tmp_path):
        fake = tmp_path / "cc"
        fake.write_text("#!/bin/sh\n")
        fake.chmod(0o755)
        monkeypatch.delenv("CC", raising=False)
        monkeypatch.setenv("PATH", str(tmp_path))
        assert c_backend.compiler_path() == str(fake)
        monkeypatch.setenv("CC", "/nonexistent/cc")
        assert c_backend.compiler_path() is None
        monkeypatch.delenv("CC")
        assert c_backend.compiler_path() == str(fake)

    def test_changed_path_takes_effect(self, monkeypatch, probes, tmp_path):
        monkeypatch.delenv("CC", raising=False)
        empty = tmp_path / "empty"
        empty.mkdir()
        monkeypatch.setenv("PATH", str(empty))
        assert c_backend.compiler_path() is None
        tools = tmp_path / "tools"
        tools.mkdir()
        (tools / "gcc").write_text("#!/bin/sh\n")
        (tools / "gcc").chmod(0o755)
        monkeypatch.setenv("PATH", str(tools))
        assert c_backend.compiler_path() == str(tools / "gcc")


class TestLazyCSource:
    def test_not_rendered_until_asked(self):
        conv = synthesize(get_format("COO"), get_format("CSR"))
        assert "c_source" not in vars(conv)
        source = conv.c_source
        assert "for (" in source
        assert vars(conv)["c_source"] is source  # memoized
        assert conv.c_source is source
