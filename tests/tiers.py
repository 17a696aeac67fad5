"""Which lowering tiers can run on this machine, for skip markers."""

import pytest

from repro.backends import get_backend


def c_available() -> bool:
    try:
        get_backend("c").require()
    except ValueError:
        return False
    return True


needs_c = pytest.mark.skipif(
    not c_available(), reason="C toolchain (cffi + compiler) unavailable"
)
