"""Request coalescing: one synthesis serves every concurrent waiter."""

import threading
import time

import pytest

from repro.obs import METRICS
from repro.runtime import COOMatrix
from repro.serve import ConversionServer, ServeClient
from repro.synthesis import cache as cache_mod
from repro.synthesis import clear_memo

COALESCED = METRICS.counter("repro_cache_coalesced_total")


@pytest.fixture
def cold_cache():
    """A cold synthesis world: an empty memo."""
    clear_memo()
    yield
    clear_memo()


def _coo(n=6):
    cells = sorted({(i, (i * 3 + k) % n) for i in range(n) for k in (0, 1)})
    return COOMatrix(
        n, n,
        [i for i, _ in cells],
        [j for _, j in cells],
        [float(i + j + 1) for i, j in cells],
    )


def test_concurrent_duplicate_requests_coalesce(cold_cache, monkeypatch):
    # Slow the (single) synthesis down so every concurrent request for
    # the same fingerprint queues behind the in-flight lock instead of
    # racing its own synthesis.
    calls = []
    real = cache_mod._raw_synthesize

    def slow_synthesize(*args, **kwargs):
        calls.append(1)
        time.sleep(0.4)
        return real(*args, **kwargs)

    monkeypatch.setattr(cache_mod, "_raw_synthesize", slow_synthesize)

    server = ConversionServer(port=0, workers=8).start_in_background()
    try:
        client = ServeClient(server.address)
        coalesced_before = COALESCED.value()
        n = 6
        barrier = threading.Barrier(n)
        responses = [None] * n
        errors = []

        def worker(slot):
            try:
                barrier.wait()
                responses[slot] = client.convert(_coo(), "CSR")
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(slot,)) for slot in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert not errors
        assert all(r["ok"] for r in responses)
        # The acceptance bar: >= 2 waiters served per synthesis.
        assert len(calls) == 1, f"{len(calls)} syntheses for one fingerprint"
        coalesced = COALESCED.value() - coalesced_before
        assert coalesced >= 2, f"only {coalesced} coalesced waiters"

        # The coalescing counter is scrapeable from the live endpoint.
        samples = client.metrics()
        assert samples[("repro_cache_coalesced_total", ())] >= coalesced
    finally:
        server.shutdown()


def test_distinct_fingerprints_not_serialized(cold_cache):
    # Different (src, dst) fingerprints take different locks; mixed
    # traffic must not queue behind one synthesis.
    server = ConversionServer(port=0, workers=4).start_in_background()
    try:
        client = ServeClient(server.address)
        results = {}

        def worker(dst):
            results[dst] = client.convert(_coo(), dst)

        threads = [
            threading.Thread(target=worker, args=(dst,))
            for dst in ("CSR", "CSC", "MCOO")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(r["ok"] for r in results.values())
    finally:
        server.shutdown()
