"""The daemon's two wire paths, as fixtures: the native library loaded,
or no library at all."""

import pytest

from repro.serve import jsontext


@pytest.fixture
def stdlib_only(monkeypatch):
    """The library unloaded and the compiler lookup failing."""
    jsontext.load()  # let any in-flight build finish before unloading
    monkeypatch.setattr(jsontext, "_LIB", None)
    monkeypatch.setenv("CC", "/nonexistent/cc")
    assert jsontext.load() is None
    return None


@pytest.fixture
def native():
    """The loaded library; skips without a C toolchain."""
    lib = jsontext.load()
    if lib is None:
        pytest.skip("C toolchain (cffi + compiler) unavailable")
    return lib
