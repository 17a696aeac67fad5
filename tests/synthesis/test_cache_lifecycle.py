"""Memo lifecycle regressions: leaks and races.

Each test here pins one of the bugs a long-lived ``repro serve`` process
cannot live with: the fingerprint table leaking descriptors, and the
memo's check-then-act race synthesizing the same key N times under
contention.
"""

import gc
import threading
import time
import weakref

import pytest

from repro.formats import get_format
from repro.io.descriptor_json import descriptor_from_dict, descriptor_to_dict
from repro.obs import METRICS
from repro.synthesis import clear_memo, format_fingerprint, synthesize_cached
from repro.synthesis import cache as cache_mod

COALESCED = METRICS.counter("repro_cache_coalesced_total")


@pytest.fixture
def fresh_memo():
    """Drop the memo around the test."""
    clear_memo()
    yield
    clear_memo()


class TestFingerprintLifetime:
    def _fresh_descriptor(self):
        return descriptor_from_dict(descriptor_to_dict(get_format("COO")))

    def test_fingerprint_matches_library_descriptor(self):
        fresh = self._fresh_descriptor()
        assert format_fingerprint(fresh) == format_fingerprint(
            get_format("COO")
        )

    def test_fingerprinted_descriptor_is_collectable(self):
        # The old id()-keyed module table held a strong reference to
        # every descriptor ever fingerprinted — an unbounded leak under
        # parameterized-format factories in a resident daemon.
        fmt = self._fresh_descriptor()
        format_fingerprint(fmt)
        ref = weakref.ref(fmt)
        del fmt
        gc.collect()
        assert ref() is None

    def test_fingerprint_memoized_per_object(self):
        fmt = self._fresh_descriptor()
        first = format_fingerprint(fmt)
        assert fmt.__dict__.get(cache_mod._FP_ATTR) == first
        assert format_fingerprint(fmt) == first


class TestInflightCoalescing:
    def test_one_synthesis_per_key_under_contention(
        self, fresh_memo, monkeypatch
    ):
        calls = []
        real = cache_mod._raw_synthesize

        def slow_synthesize(*args, **kwargs):
            calls.append(threading.get_ident())
            time.sleep(0.3)  # hold the key so every waiter queues up
            return real(*args, **kwargs)

        monkeypatch.setattr(cache_mod, "_raw_synthesize", slow_synthesize)

        n = 8
        barrier = threading.Barrier(n)
        results = [None] * n
        coalesced_before = COALESCED.value()

        def worker(slot):
            barrier.wait()
            results[slot] = synthesize_cached(
                get_format("COO"), get_format("CSR")
            )

        threads = [
            threading.Thread(target=worker, args=(slot,))
            for slot in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert len(calls) == 1, f"{len(calls)} syntheses for one key"
        assert all(r is results[0] for r in results)
        assert COALESCED.value() > coalesced_before

    def test_distinct_keys_do_not_serialize(self, fresh_memo):
        # Locks are per key: COO->CSR and CSR->CSC proceed independently.
        a = synthesize_cached(get_format("COO"), get_format("CSR"))
        b = synthesize_cached(get_format("CSR"), get_format("CSC"))
        assert a is not b
