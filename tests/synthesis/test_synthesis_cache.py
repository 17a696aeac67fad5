"""The synthesis memo and the persistent inspector cache.

The cache must be invisible except for speed: a conversion served from
the memo or from disk must be bit-identical (same generated source, same
signature, same execution results) to a freshly synthesized one, and
clearing the cache must bring back the same artifact.
"""

import pytest

from repro.formats import get_format
from repro.obs import METRICS
from repro.synthesis import (
    SynthesisError,
    cache_stats,
    clear_disk_cache,
    clear_memo,
    format_fingerprint,
    synthesize,
    synthesize_cached,
)
from repro.synthesis import cache as cache_mod

MEMO_HITS = METRICS.counter("repro_cache_memo_hit_total")
MISSES = METRICS.counter("repro_cache_miss_total")


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    """Point the disk cache at a fresh directory and drop the memo."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE_DISABLE", raising=False)
    clear_memo()
    yield tmp_path / "cache"
    clear_memo()


class TestFingerprint:
    def test_stable_across_lookups(self):
        assert format_fingerprint(get_format("COO")) == format_fingerprint(
            get_format("COO")
        )

    def test_distinct_formats_distinct_fingerprints(self):
        fps = {
            format_fingerprint(get_format(n))
            for n in ("COO", "CSR", "CSC", "DIA")
        }
        assert len(fps) == 4


class TestMemo:
    def test_second_call_is_memo_hit(self, isolated_cache):
        src, dst = get_format("COO"), get_format("CSR")
        first = synthesize_cached(src, dst)
        hits_before = MEMO_HITS.value()
        second = synthesize_cached(src, dst)
        assert second is first
        assert MEMO_HITS.value() == hits_before + 1

    def test_failures_memoized(self, isolated_cache):
        src, dst = get_format("COO"), get_format("ELL")
        with pytest.raises(SynthesisError):
            synthesize_cached(src, dst)
        misses_before = MISSES.value()
        with pytest.raises(SynthesisError):
            synthesize_cached(src, dst)
        # The second failure came from a cache layer, not re-synthesis.
        assert MISSES.value() == misses_before

    def test_planner_synthesizes_once_per_pair(self, isolated_cache):
        # Regression: the planner's edge-cost sweep must route through the
        # cache, so a second planner never re-synthesizes a known pair.
        from repro.planner import ConversionPlanner

        ConversionPlanner(["COO", "CSR"]).edge_cost("COO", "CSR")
        misses_before = MISSES.value()
        ConversionPlanner(["COO", "CSR"]).edge_cost("COO", "CSR")
        assert MISSES.value() == misses_before


class TestDiskRoundTrip:
    def test_bit_identical_source(self, isolated_cache):
        src, dst = get_format("COO"), get_format("CSR")
        fresh = synthesize_cached(src, dst)
        clear_memo()  # force the disk path
        loaded = synthesize_cached(src, dst)
        assert loaded.source == fresh.source
        assert loaded.params == fresh.params
        assert loaded.returns == fresh.returns
        assert loaded.uf_output_map == fresh.uf_output_map
        assert loaded.backend == fresh.backend

    def test_disk_entry_written(self, isolated_cache):
        synthesize_cached(get_format("COO"), get_format("CSR"))
        assert cache_stats()["entries"] >= 1

    def test_negative_entries_persisted(self, isolated_cache):
        with pytest.raises(SynthesisError):
            synthesize_cached(get_format("COO"), get_format("ELL"))
        clear_memo()
        misses_before = MISSES.value()
        with pytest.raises(SynthesisError):
            synthesize_cached(get_format("COO"), get_format("ELL"))
        # Served by the persisted negative entry — no re-synthesis.
        assert MISSES.value() == misses_before

    def test_loaded_conversion_executes(self, isolated_cache):
        from repro.runtime.executor import compile_inspector

        synthesize_cached(get_format("COO"), get_format("CSR"))
        clear_memo()
        conv = synthesize_cached(get_format("COO"), get_format("CSR"))
        assert conv.computation is None  # disk entries carry source only
        compiled = compile_inspector(conv.name, conv.source)
        args = dict(
            row1=[0, 0, 1, 2],
            col1=[0, 2, 1, 2],
            Asrc=[1.0, 2.0, 3.0, 4.0],
            NNZ=4,
            NR=3,
            NC=3,
        )
        out = compiled(**args)
        assert out["rowptr"] == [0, 2, 3, 4]
        assert out["col2"] == [0, 2, 1, 2]
        assert out["Adst"] == [1.0, 2.0, 3.0, 4.0]


class TestEquivalence:
    """Identical artifacts with the cache on, off, and after clearing."""

    PAIRS = [("COO", "CSR"), ("CSR", "CSC"), ("COO", "DIA")]

    @pytest.mark.parametrize("src,dst", PAIRS)
    def test_enabled_disabled_and_cleared_agree(
        self, isolated_cache, monkeypatch, src, dst
    ):
        a = synthesize_cached(get_format(src), get_format(dst))

        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        clear_memo()
        b = synthesize_cached(get_format(src), get_format(dst))
        monkeypatch.delenv("REPRO_CACHE_DISABLE")

        removed = clear_disk_cache()
        assert removed >= 1
        clear_memo()
        c = synthesize_cached(get_format(src), get_format(dst))

        assert a.source == b.source == c.source
        assert a.params == b.params == c.params
        assert a.returns == b.returns == c.returns


class TestStatsAndClear:
    def test_stats_shape(self, isolated_cache):
        stats = cache_stats()
        assert set(stats) >= {
            "root",
            "code_version",
            "disk_enabled",
            "entries",
            "stale_entries",
            "memo_entries",
            "counters",
        }

    def test_clear_disk_cache_empties_current_version(self, isolated_cache):
        synthesize_cached(get_format("COO"), get_format("CSR"))
        assert cache_stats()["entries"] >= 1
        clear_disk_cache()
        assert cache_stats()["entries"] == 0

    def test_disk_disable_env(self, isolated_cache, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DISABLE", "1")
        assert not cache_mod.disk_enabled()
        clear_memo()
        synthesize_cached(get_format("COO"), get_format("CSR"))
        assert cache_stats()["entries"] == 0


class TestExecutorCompileCache:
    def test_key_includes_code_version(self):
        from repro.codeversion import code_version_hash
        from repro.runtime import executor

        conv = synthesize(get_format("COO"), get_format("CSR"))
        executor.compile_inspector(conv.name, conv.source)
        version = code_version_hash()
        assert any(version in key for key in executor._COMPILE_CACHE)
