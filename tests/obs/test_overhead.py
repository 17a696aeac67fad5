"""The disabled-path cost contract: tracing off must be ~free.

The instrumented hot path (``convert`` → cache lookup → execute) crosses
roughly a dozen span sites.  With tracing disabled each site is one flag
check returning the shared no-op span, so the total per-conversion cost
of the observability layer must stay under 1% of a real conversion's
wall time.  This test measures both sides and pins the ratio, with a
generous conversion size so scheduler noise cannot flip it.
"""

import time

import pytest

import repro
import repro.obs as obs
from repro.datagen import random_uniform
from repro.obs import NOOP_SPAN, TRACER

#: Upper bound on span sites crossed by one convert() call (actual ~12:
#: convert, validate x2, parse x2, cache.lookup, synthesize + 5 phases,
#: compile, execute, pack).  Overstated on purpose.
SPAN_SITES_PER_CONVERSION = 32


@pytest.fixture(autouse=True)
def tracing_off():
    TRACER.disable()
    TRACER.clear()
    yield
    TRACER.clear()


def _per_site_cost(iterations: int = 20_000) -> float:
    """Best-of-5 per-call cost of a disabled span site, in seconds."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(iterations):
            with obs.span("probe", category="test", key="value"):
                pass
        best = min(best, (time.perf_counter() - start) / iterations)
    return best


def test_disabled_span_returns_shared_noop_without_recording():
    assert obs.span("x") is NOOP_SPAN
    assert TRACER.finished_roots() == []


def test_disabled_overhead_is_under_one_percent_of_a_conversion():
    # Sized so the budget is no looser than it was when this pin was
    # set: on a 2-core Xeon VM (CPython 3.11) a 4096-nnz 128x128 COO->CSR
    # conversion took 2.1 ms with the per-class input checks, and this
    # 12288-nnz one takes 1.7 ms with the vectorized gate (the 4096-nnz
    # one now 0.7 ms).  A disabled site costs ~0.37 us there, so 32 sites
    # spend ~12 us of the ~17 us allowed.
    matrix = random_uniform(256, 256, 12288, seed=7)
    # Warm synthesis + compile so the timed calls measure execution only.
    repro.convert(matrix, "CSR")

    runs = []
    for _ in range(3):
        start = time.perf_counter()
        repro.convert(matrix, "CSR")
        runs.append(time.perf_counter() - start)
    conversion_s = min(runs)

    site_cost = _per_site_cost()
    budget = 0.01 * conversion_s
    spent = site_cost * SPAN_SITES_PER_CONVERSION
    assert spent < budget, (
        f"disabled tracing costs {spent * 1e6:.1f}us per conversion "
        f"({site_cost * 1e9:.0f}ns/site x {SPAN_SITES_PER_CONVERSION}), "
        f"over 1% of the {conversion_s * 1e3:.2f}ms conversion"
    )


def test_enabled_tracing_still_cheap_relative_to_synthesis():
    """Tracing on: span bookkeeping stays well under synthesis cost.

    This is a sanity bound (10x looser than the disabled-path pin), not a
    benchmark.  Best of 5 batches, like :func:`_per_site_cost`, so a GC
    pause of the surrounding suite's heap lands in one batch only.
    """
    TRACER.enable()
    per_tree = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(1_000):
            with obs.span("outer", category="test"):
                with obs.span("inner"):
                    pass
        per_tree = min(per_tree, (time.perf_counter() - start) / 1_000)
        TRACER.clear()
    TRACER.disable()
    # A two-span tree must build in well under 100us (typical: ~2us).
    assert per_tree < 100e-6
