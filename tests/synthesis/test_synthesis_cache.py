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
    synthesize_cached,
)
from repro.synthesis import cache as cache_mod
from tests.tiers import needs_c

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
        assert conv.computation is None  # served from disk, not synthesized
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


def _stmt_labels(conversion) -> list[str]:
    """The ``execute.stmt`` labels of one deep-traced run."""
    from repro.obs import TRACER

    dense = [[1.0, 0.0, 2.0], [0.0, 0.0, 3.0], [4.0, 5.0, 0.0]]
    env = get_format(conversion.src_format).levels.assemble(dense)
    TRACER.clear()
    with TRACER.forced(True):
        conversion.run_native(**{p: env[p] for p in conversion.params})
    (execute,) = [r for r in TRACER.finished_roots() if r.name == "execute"]
    TRACER.clear()
    return [c.name for c in execute.children if c.category == "execute.stmt"]


class TestDiskRecord:
    """The lowered program is the record a disk entry restores: a
    conversion served from disk prints, costs and traces like a fresh one."""

    @pytest.mark.parametrize(
        "backend", ["python", "numpy", pytest.param("c", marks=needs_c)]
    )
    @pytest.mark.parametrize(
        "pair", [("SCOO", "CSR"), ("COO", "CSC"), ("COO", "DIA")]
    )
    def test_disk_loaded_equals_fresh(self, isolated_cache, backend, pair):
        from repro.backends.base import program_features
        from repro.datagen.matrices import banded, stencil_offsets
        from repro.planner import estimate_cost
        from repro.planner.stats import matrix_stats

        src, dst = (get_format(name) for name in pair)
        fresh = synthesize_cached(src, dst, backend=backend)
        clear_memo()
        loaded = synthesize_cached(src, dst, backend=backend)
        assert fresh.computation is not None
        assert loaded.computation is None  # served from disk

        assert loaded.c_source == fresh.c_source
        assert "for (" in loaded.c_source
        assert program_features(loaded.program) == program_features(
            fresh.program
        )
        stats = matrix_stats(banded(64, 64, stencil_offsets(5), seed=0))
        for profile in (None, stats):
            assert estimate_cost(loaded, profile) == estimate_cost(
                fresh, profile
            )
        labels = _stmt_labels(fresh)
        assert _stmt_labels(loaded) == labels
        # One span per top-level node; the C tier runs untimed.
        assert len(labels) == (
            0 if backend == "c" else len(fresh.program.body)
        )

    def test_payload_holds_the_program_not_text_renderings(
        self, isolated_cache
    ):
        import json

        synthesize_cached(get_format("SCOO"), get_format("CSR"))
        (entry,) = isolated_cache.rglob("*.json")
        payload = json.loads(entry.read_text())
        assert payload["version"] == 3
        assert set(payload) == {
            "name", "src_format", "dst_format", "params", "returns",
            "source", "uf_output_map", "notes", "backend", "vector_stats",
            "program", "version", "code_version",
        }

    def test_stale_version_is_never_decoded(self, isolated_cache):
        import json

        synthesize_cached(get_format("SCOO"), get_format("CSR"))
        (entry,) = isolated_cache.rglob("*.json")
        payload = json.loads(entry.read_text())
        payload["version"] = 2
        payload["program"] = "not a pickle"
        entry.write_text(json.dumps(payload))
        clear_memo()
        misses = MISSES.value()
        conv = synthesize_cached(get_format("SCOO"), get_format("CSR"))
        assert MISSES.value() == misses + 1
        assert conv.computation is not None


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
