"""The synthesis memo.

The memo must be invisible except for speed: a conversion it serves must
be the one synthesis produced (same generated source, same signature),
and clearing it must bring back the same artifact.
"""

import pytest

from repro.formats import get_format
from repro.obs import METRICS
from repro.synthesis import (
    SynthesisError,
    cache_stats,
    clear_memo,
    format_fingerprint,
    synthesize,
    synthesize_cached,
)

MEMO_HITS = METRICS.counter("repro_cache_memo_hit_total")
MISSES = METRICS.counter("repro_cache_miss_total")


@pytest.fixture
def fresh_memo():
    """Drop the memo around the test."""
    clear_memo()
    yield
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
    def test_second_call_is_memo_hit(self, fresh_memo):
        src, dst = get_format("COO"), get_format("CSR")
        first = synthesize_cached(src, dst)
        hits_before = MEMO_HITS.value()
        second = synthesize_cached(src, dst)
        assert second is first
        assert MEMO_HITS.value() == hits_before + 1

    def test_failures_memoized(self, fresh_memo):
        src, dst = get_format("COO"), get_format("ELL")
        with pytest.raises(SynthesisError):
            synthesize_cached(src, dst)
        misses_before = MISSES.value()
        with pytest.raises(SynthesisError):
            synthesize_cached(src, dst)
        # The second failure came from the memo, not re-synthesis.
        assert MISSES.value() == misses_before

    def test_planner_synthesizes_once_per_pair(self, fresh_memo):
        # Regression: the planner's edge-cost sweep must route through the
        # cache, so a second planner never re-synthesizes a known pair.
        from repro.planner import ConversionPlanner

        ConversionPlanner(["COO", "CSR"]).edge_cost("COO", "CSR")
        misses_before = MISSES.value()
        ConversionPlanner(["COO", "CSR"]).edge_cost("COO", "CSR")
        assert MISSES.value() == misses_before


class TestEquivalence:
    """Identical artifacts from the memo, from an uncached synthesis, and
    after clearing the memo."""

    PAIRS = [("COO", "CSR"), ("CSR", "CSC"), ("COO", "DIA")]

    @pytest.mark.parametrize("src,dst", PAIRS)
    def test_enabled_disabled_and_cleared_agree(self, fresh_memo, src, dst):
        a = synthesize_cached(get_format(src), get_format(dst))
        b = synthesize(get_format(src), get_format(dst))
        clear_memo()
        c = synthesize_cached(get_format(src), get_format(dst))

        assert c is not a
        assert a.source == b.source == c.source
        assert a.params == b.params == c.params
        assert a.returns == b.returns == c.returns


class TestStatsAndClear:
    def test_stats_shape(self, fresh_memo):
        stats = cache_stats()
        assert set(stats) == {"memo_entries", "counters"}
        assert set(stats["counters"]) == {
            "repro_cache_memo_hit_total",
            "repro_cache_coalesced_total",
            "repro_cache_miss_total",
        }

    def test_clear_memo_empties_the_memo(self, fresh_memo):
        synthesize_cached(get_format("COO"), get_format("CSR"))
        assert cache_stats()["memo_entries"] == 1
        clear_memo()
        assert cache_stats()["memo_entries"] == 0
