"""Cache keys must cover the resolved pass pipeline.

Disabling a pass changes the generated inspector, so a request with
``disabled_passes`` must never be served an inspector memoized for the
full pipeline (or vice versa).
"""

import pytest

from repro.formats import get_format
from repro.synthesis import cache_stats, clear_memo, synthesize_cached


@pytest.fixture
def fresh_memo():
    clear_memo()
    yield
    clear_memo()


class TestPassConfigKeys:
    def test_disabled_pass_gets_distinct_memo_entry(self, fresh_memo):
        src, dst = get_format("SCOO"), get_format("CSR")
        full = synthesize_cached(src, dst)
        partial = synthesize_cached(src, dst, disabled_passes=("fusion",))
        assert full is not partial
        assert full.source != partial.source
        # Same config again is the same object (memo hit), proving the
        # two configs key separately rather than evicting each other.
        assert synthesize_cached(src, dst) is full
        assert synthesize_cached(
            src, dst, disabled_passes=("fusion",)
        ) is partial

    def test_disable_order_is_normalized_into_one_key(self, fresh_memo):
        src, dst = get_format("SCOO"), get_format("CSR")
        a = synthesize_cached(src, dst, disabled_passes=("dce", "fusion"))
        b = synthesize_cached(src, dst, disabled_passes=("fusion", "dce"))
        # The fingerprint orders by canonical pass position, so the two
        # spellings resolve to the same pipeline and the same cache slot.
        assert a is b

    def test_unknown_disabled_pass_rejected_before_caching(
        self, fresh_memo
    ):
        src, dst = get_format("SCOO"), get_format("CSR")
        with pytest.raises(ValueError, match="unknown optimization pass"):
            synthesize_cached(src, dst, disabled_passes=("fusoin",))
        assert cache_stats()["memo_entries"] == 0
