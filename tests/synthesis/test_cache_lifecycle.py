"""Cache lifecycle regressions: clear scoping, leaks, races, budgets.

Each test here pins one of the bugs a long-lived ``repro serve`` process
cannot live with: a full cache clear destroying the learned-cost store,
the fingerprint table leaking descriptors, the memo's check-then-act
race synthesizing the same key N times under contention, and the disk
store growing without bound.
"""

import gc
import os
import threading
import time
import weakref

import pytest

from repro.formats import get_format
from repro.io.descriptor_json import descriptor_from_dict, descriptor_to_dict
from repro.obs import METRICS
from repro.planner.coststore import CostStore
from repro.synthesis import (
    cache_stats,
    clear_disk_cache,
    clear_memo,
    format_fingerprint,
    synthesize_cached,
)
from repro.synthesis import cache as cache_mod

COALESCED = METRICS.counter("repro_cache_coalesced_total")


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    """Fresh cache root, fresh memo, no budget, costs co-located."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE_DISABLE", raising=False)
    monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
    monkeypatch.delenv("REPRO_CACHE_MAX_ENTRIES", raising=False)
    monkeypatch.delenv("REPRO_COSTS_DIR", raising=False)
    monkeypatch.delenv("REPRO_COSTS_DISABLE", raising=False)
    clear_memo()
    yield tmp_path / "cache"
    clear_memo()


class TestClearScoping:
    def test_cost_store_survives_full_clear(self, isolated_cache):
        # The learned-cost store lives under <cache root>/costs/; a full
        # `repro cache clear --all-versions` used to rglob it away.
        store = CostStore()
        store.record("conv-key", "bucket", 0.25, label="COO->CSR")
        assert store.path.is_file()

        synthesize_cached(get_format("COO"), get_format("CSR"))
        assert cache_stats()["entries"] >= 1

        removed = clear_disk_cache(all_versions=True)
        assert removed >= 1
        assert cache_stats()["entries"] == 0

        survivor = CostStore()
        assert survivor.lookup("conv-key", "bucket") is not None

    def test_clear_all_versions_removes_every_partition(
        self, isolated_cache
    ):
        synthesize_cached(get_format("COO"), get_format("CSR"))
        # Fake a stale partition from an older code version.
        stale = cache_mod.cache_root() / ("0" * 16) / "ab"
        stale.mkdir(parents=True)
        (stale / "old.json").write_text("{}")
        assert clear_disk_cache(all_versions=True) >= 2
        assert not list(cache_mod.cache_root().rglob("*.json")) or all(
            "costs" in str(p)
            for p in cache_mod.cache_root().rglob("*.json")
        )


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
        self, isolated_cache, monkeypatch
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

    def test_distinct_keys_do_not_serialize(self, isolated_cache):
        # Locks are per key: COO->CSR and CSR->CSC proceed independently.
        a = synthesize_cached(get_format("COO"), get_format("CSR"))
        b = synthesize_cached(get_format("CSR"), get_format("CSC"))
        assert a is not b


class TestShardedBudget:
    def test_entries_land_in_shard_subdirs(self, isolated_cache):
        synthesize_cached(get_format("COO"), get_format("CSR"))
        files = list(cache_mod.cache_dir().rglob("*.json"))
        assert files, "no disk entry written"
        for path in files:
            shard = path.parent.name
            assert len(shard) == 2 and all(
                c in "0123456789abcdef" for c in shard
            ), f"entry {path} not in a two-hex-digit shard"

    def test_entry_budget_enforced(self, isolated_cache, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "1")
        synthesize_cached(get_format("COO"), get_format("CSR"))
        clear_memo()
        synthesize_cached(get_format("CSR"), get_format("CSC"))
        assert cache_stats()["entries"] <= 1

    def test_byte_budget_enforced(self, isolated_cache, monkeypatch):
        synthesize_cached(get_format("COO"), get_format("CSR"))
        size = cache_stats()["bytes"]
        assert size > 0
        # A budget below one entry's size evicts down to zero entries.
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", str(size - 1))
        clear_memo()
        synthesize_cached(get_format("CSR"), get_format("CSC"))
        assert cache_stats()["bytes"] <= size - 1

    def test_eviction_is_lru_not_fifo(self, isolated_cache, monkeypatch):
        synthesize_cached(get_format("COO"), get_format("CSR"))
        clear_memo()
        synthesize_cached(get_format("CSR"), get_format("CSC"))
        files = {
            p: p.stat().st_mtime
            for p in cache_mod.cache_dir().rglob("*.json")
        }
        assert len(files) == 2
        # Age the CSR->CSC entry far into the past, then "use" COO->CSR
        # via a disk hit (which refreshes its mtime), so the aged entry
        # is the LRU victim when the budget forces one eviction.
        newest = max(files, key=files.get)
        os.utime(newest, (1.0, 1.0))
        clear_memo()
        synthesize_cached(get_format("COO"), get_format("CSR"))
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "2")
        clear_memo()
        synthesize_cached(get_format("COO"), get_format("DIA"))
        survivors = set(cache_mod.cache_dir().rglob("*.json"))
        assert newest not in survivors
        assert len(survivors) == 2
