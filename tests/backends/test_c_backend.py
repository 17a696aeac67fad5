"""The compiled-C tier: artifact cache, availability gating, coverage.

The compile-cache tests pin the PR 2 disk-cache conventions on the .so
artifact store: content-hashed reuse across processes, a cache miss when
either partition key (package code version, compiler version tag) changes,
and the ``REPRO_CBACKEND_DISABLE`` knob confining builds to a per-process
scratch directory.  The availability tests pin the graceful-degradation
contract: a missing soft dependency raises the registry's standard
:class:`BackendUnavailableError` from ``require()``, while every entry
point (``convert``, the planner, the fuzzer) silently falls back a tier.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import COOMatrix, convert
from repro._prof import PROF
from repro.backends import (
    BackendUnavailableError,
    available_backend,
    c_backend,
    get_backend,
)
from repro.formats import get_format
from repro.synthesis import synthesize

np = pytest.importorskip("numpy")

SRC_DIR = str(Path(c_backend.__file__).parents[2])


def _c_available() -> bool:
    try:
        get_backend("c").require()
    except ValueError:
        return False
    return True


needs_c = pytest.mark.skipif(
    not _c_available(), reason="C toolchain (cffi + compiler) unavailable"
)


def _counter(name: str) -> int:
    return PROF.snapshot()["counters"].get(name, 0)


def _matrix() -> COOMatrix:
    return COOMatrix(3, 4, [0, 1, 2, 2], [1, 0, 2, 3], [1.0, 2.0, 3.0, 4.0])


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """An isolated artifact cache; the dlopen memo is cleared around it."""
    monkeypatch.setenv("REPRO_CBACKEND_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_CBACKEND_DISABLE", raising=False)
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
        miss0, hit0 = _counter("cbackend.compile.miss"), _counter(
            "cbackend.compile.hit"
        )
        _run_c_conversion()
        assert _counter("cbackend.compile.miss") == miss0 + 1
        # Artifact + its .c source are published in the partition dir.
        sos = list(cache_dir.glob("*/*.so"))
        assert len(sos) == 1
        assert sos[0].with_suffix(".c").exists()
        assert c_backend.artifact_dir() == sos[0].parent
        # A fresh dlopen (new process simulated by clearing the memo)
        # must be served from disk: hit, no second compile.
        c_backend.clear_lib_memo()
        _run_c_conversion()
        assert _counter("cbackend.compile.miss") == miss0 + 1
        assert _counter("cbackend.compile.hit") > hit0

    def test_memo_hit_without_reload(self, cache_dir):
        _run_c_conversion()
        hit0 = _counter("cbackend.compile.hit")
        miss0 = _counter("cbackend.compile.miss")
        _run_c_conversion()  # same translation unit, memoized dlopen
        assert _counter("cbackend.compile.hit") == hit0 + 1
        assert _counter("cbackend.compile.miss") == miss0

    def test_cross_process_artifact_reuse(self, cache_dir):
        script = (
            "import json\n"
            "from repro import COOMatrix, convert\n"
            "from repro._prof import PROF\n"
            "m = COOMatrix(3, 4, [0, 1, 2, 2], [1, 0, 2, 3],\n"
            "              [1.0, 2.0, 3.0, 4.0])\n"
            "csr = convert(m, 'CSR', backend='c')\n"
            "assert csr.rowptr.tolist() == [0, 1, 2, 4], csr.rowptr\n"
            "c = PROF.snapshot()['counters']\n"
            "print(json.dumps({k: v for k, v in c.items()\n"
            "                  if k.startswith('cbackend.')}))\n"
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
                    "REPRO_CACHE_DISABLE": "1",
                },
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout.splitlines()[-1])

        cold = run_once()
        assert cold.get("cbackend.compile.miss", 0) >= 1
        warm = run_once()
        assert warm.get("cbackend.compile.miss", 0) == 0
        assert warm.get("cbackend.compile.hit", 0) >= 1

    def test_miss_on_code_version_bump(self, cache_dir, monkeypatch):
        _run_c_conversion()
        miss0 = _counter("cbackend.compile.miss")
        monkeypatch.setattr(
            "repro.codeversion.code_version_hash", lambda: "0" * 64
        )
        c_backend.clear_lib_memo()
        _run_c_conversion()
        assert _counter("cbackend.compile.miss") == miss0 + 1
        assert (cache_dir / c_backend.artifact_dir().name).name.startswith(
            "0" * 12
        )

    def test_miss_on_compiler_change(self, cache_dir, monkeypatch):
        _run_c_conversion()
        miss0 = _counter("cbackend.compile.miss")
        monkeypatch.setattr(c_backend, "_COMPILER_TAG", "f" * 16)
        c_backend.clear_lib_memo()
        _run_c_conversion()
        assert _counter("cbackend.compile.miss") == miss0 + 1
        assert c_backend.artifact_dir().name.endswith("f" * 12)

    def test_disable_knob_confines_to_scratch(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_CBACKEND_DISABLE", "1")
        monkeypatch.setattr(c_backend, "_SCRATCH", None)
        c_backend.clear_lib_memo()
        conv, out = _run_c_conversion()
        assert out["rowptr"][-1] == 4
        assert not list(cache_dir.glob("*/*.so"))
        assert list(c_backend._scratch_dir().glob("*.so"))


@needs_c
class TestExecution:
    def test_matches_python_tier(self, cache_dir):
        m = _matrix()
        a = convert(m, "CSR", backend="python")
        b = convert(m, "CSR", backend="c")
        assert (a.rowptr, a.col, a.val) == (b.rowptr, b.col, b.val)

    def test_error_code_maps_to_overflow(self, cache_dir):
        # Morton keys are range-checked in C (31 bits per 2-D coordinate);
        # RT_ERANGE must surface as the OverflowError the interpreted
        # runtime raises, not as a wrong answer.
        from repro import container_to_env

        conv = synthesize(get_format("COO"), get_format("MCOO"), backend="c")
        big = COOMatrix(2**31 + 1, 2, [2**31], [0], [1.0])
        env = container_to_env(big)
        with pytest.raises(OverflowError):
            conv(**{p: env[p] for p in conv.params})

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


@needs_c
def test_sweep_runs_compiled_without_fallback():
    # Every conversion of the sweep (library pairs, Figure 3 binary
    # searches, random compositions) lowers to a compiled wrapper: the C
    # tier has no interpreted fallback.
    from tests.sweep import synthesized

    labels = [label for label, conversion in synthesized("c")
              if not conversion.source.startswith("__C_SPEC_")]
    assert labels == []


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
        fallback0 = _counter("backend.fallback.c->numpy")
        assert available_backend("c").name == "numpy"
        assert _counter("backend.fallback.c->numpy") == fallback0 + 1

    def test_convert_degrades_instead_of_failing(self, monkeypatch):
        monkeypatch.setenv("CC", "/nonexistent/cc")
        monkeypatch.setattr(c_backend, "_COMPILER_TAG", None)
        m = _matrix()
        csr = convert(m, "CSR", backend="c")
        ref = convert(m, "CSR", backend="python")
        assert (csr.rowptr, csr.col, csr.val) == (ref.rowptr, ref.col, ref.val)

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
        assert conv._c_source is None
        source = conv.c_source
        assert "for (" in source
        assert conv._c_source is source  # memoized
        assert conv.c_source is source

    def test_disk_loaded_conversion_degrades_to_empty(self):
        import dataclasses

        conv = synthesize(get_format("COO"), get_format("CSR"))
        stripped = dataclasses.replace(
            conv, computation=None, symtab=None, _c_source=None
        )
        assert stripped.c_source == ""
