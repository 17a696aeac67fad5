"""Typed metrics and the unified snapshot's one-source-of-truth contract."""

import pytest

import repro.obs as obs
from repro.obs import METRICS, MetricsRegistry, unified_snapshot
from repro.obs.metrics import Counter, Gauge, Histogram


@pytest.fixture(autouse=True)
def clean_metrics():
    obs.reset_all()
    yield
    obs.reset_all()


class TestInstruments:
    def test_counter_accumulates_per_label_set(self):
        counter = Counter("conversions")
        counter.inc()
        counter.inc(2, backend="numpy")
        counter.inc(backend="numpy")
        assert counter.value() == 1
        assert counter.value(backend="numpy") == 3
        samples = {
            tuple(sorted(s["labels"].items())): s["value"]
            for s in counter.snapshot()["samples"]
        }
        assert samples[()] == 1
        assert samples[(("backend", "numpy"),)] == 3

    def test_gauge_sets_not_accumulates(self):
        gauge = Gauge("entries")
        gauge.set(5, table="memo")
        gauge.set(2, table="memo")
        assert gauge.value(table="memo") == 2

    def test_histogram_buckets_are_cumulative(self):
        hist = Histogram("latency", buckets=(0.01, 0.1, 1.0))
        # 0.1 sits exactly on a bound: it counts in that bound's bucket.
        for value in (0.005, 0.05, 0.1, 0.5, 5.0):
            hist.observe(value)
        sample = hist.snapshot()["samples"][0]["value"]
        assert sample["count"] == 5
        assert sample["sum"] == pytest.approx(5.655)
        assert sample["min"] == pytest.approx(0.005)
        assert sample["max"] == pytest.approx(5.0)
        assert sample["buckets"] == [1, 3, 4]  # cumulative per bound

    def test_registry_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("hits", "help text")
        b = registry.counter("hits")
        assert a is b

    def test_registry_rejects_kind_conflicts(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("thing")

    def test_added_counts_carry_histograms_across_registries(self):
        # A pool worker returns what it recorded since `before`; its
        # parent adds the counts and folds in the observations.
        worker, parent = MetricsRegistry(), MetricsRegistry()
        worker.counter("n").inc(2)
        worker.histogram("t", buckets=(0.01, 1.0)).observe(0.5, step="a")
        before = worker.counts()
        worker.counter("n").inc(3)
        hist = worker.histogram("t", buckets=(0.01, 1.0))
        for value in (0.002, 5.0):
            hist.observe(value, step="a")
        hist.observe(0.02, step="b")
        parent.histogram("t", buckets=(0.01, 1.0)).observe(0.3, step="a")
        parent.add_counts(worker.added_since(before))
        parent.add_counts(worker.added_since(worker.counts()))  # nothing
        assert parent.counter("n").value() == 3
        samples = {
            s["labels"]["step"]: s["value"]
            for s in parent.histogram("t").snapshot()["samples"]
        }
        assert samples["a"]["count"] == 3
        assert samples["a"]["sum"] == pytest.approx(5.302)
        assert samples["a"]["buckets"] == [1, 2]  # cumulative per bound
        assert (samples["a"]["min"], samples["a"]["max"]) == (0.002, 5.0)
        assert samples["b"]["count"] == 1
        assert samples["b"]["buckets"] == [0, 1]

    def test_reset_clears_series_but_keeps_registration(self):
        registry = MetricsRegistry()
        counter = registry.counter("n")
        counter.inc(7)
        registry.reset()
        assert counter.value() == 0
        assert registry.counter("n") is counter


class TestUnifiedSnapshot:
    def test_sections_present(self):
        assert sorted(unified_snapshot()) == [
            "cache", "ir_memo_tables", "metrics", "spans",
        ]

    def test_cache_section_reads_the_typed_cache_counters(self):
        """The cache section's counters are the typed cache counters the
        ``metrics`` section holds, so the two never disagree."""
        METRICS.counter("repro_cache_memo_hit_total").inc(4)
        METRICS.counter("repro_cache_miss_total").inc()
        snapshot = unified_snapshot()
        counters = snapshot["cache"]["counters"]
        assert counters["repro_cache_memo_hit_total"] == 4
        assert counters["repro_cache_miss_total"] == 1
        for name, value in counters.items():
            samples = snapshot["metrics"][name]["samples"]
            assert value == sum(s["value"] for s in samples), name

        from repro.synthesis.cache import cache_stats

        assert cache_stats()["counters"] == counters

    def test_stats_file_payload_is_the_unified_snapshot(self):
        """The REPRO_CACHE_STATS_FILE dump is the unified snapshot itself
        (CI's warm step reads its ``metrics`` section)."""
        METRICS.counter("repro_cache_miss_total").inc(2)
        from repro.synthesis.cache import stats_file_payload

        payload = stats_file_payload()
        assert sorted(payload) == sorted(unified_snapshot())
        assert payload["cache"]["counters"]["repro_cache_miss_total"] == 2

    def test_typed_metrics_land_in_snapshot(self):
        METRICS.counter("repro_test_metric", "docs").inc(3, kind="x")
        snapshot = unified_snapshot(include_cache=False)
        metric = snapshot["metrics"]["repro_test_metric"]
        assert metric["kind"] == "counter"
        assert metric["samples"][0]["value"] == 3
        assert "cache" not in snapshot

    def test_reset_all_zeroes_every_source(self):
        METRICS.counter("repro_reset_probe").inc()
        obs.TRACER.enable()
        with obs.span("probe"):
            pass
        obs.reset_all()
        obs.TRACER.disable()
        snapshot = unified_snapshot(include_cache=False)
        assert snapshot["spans"] == {}
        probe = snapshot["metrics"].get("repro_reset_probe")
        assert probe is None or probe["samples"] == []


class TestGateMetrics:
    def test_gate_rejections_counted_by_error_subclass(self):
        from repro.errors import ValidationError
        from repro.runtime import COOMatrix
        from repro.verify import gate

        bad = COOMatrix(
            nrows=2, ncols=2, row=[0, 5], col=[0, 1], val=[1.0, 2.0]
        )
        with pytest.raises(ValidationError) as excinfo:
            gate.check_input(bad, level="inputs")
        rejections = METRICS.counter("repro_gate_rejections")
        assert (
            rejections.value(
                error=type(excinfo.value).__name__, where="input"
            )
            == 1
        )
        checks = METRICS.counter("repro_gate_checks")
        assert checks.value(where="input") == 1

    def test_unsorted_rejection_uses_its_own_subclass(self):
        from repro.errors import UnsortedInputError
        from repro.runtime import COOMatrix
        from repro.verify import gate

        unsorted = COOMatrix(
            nrows=3, ncols=3, row=[2, 0], col=[0, 1], val=[1.0, 2.0]
        )
        with pytest.raises(UnsortedInputError):
            gate.check_input(unsorted, level="inputs", assume_sorted=True)
        rejections = METRICS.counter("repro_gate_rejections")
        assert (
            rejections.value(error="UnsortedInputError", where="input") == 1
        )
