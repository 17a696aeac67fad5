"""The learned-cost store: persistence, eviction, calibration, keys."""

import json
import os
import threading
from pathlib import Path

import pytest

from repro.filelock import file_lock
from repro.planner import coststore
from repro.planner.coststore import (
    CostStore,
    conversion_cost_key,
    costs_root,
    default_cost_store,
    reset_default_store,
)


class TestRoundTrip:
    def test_record_then_lookup(self, tmp_path):
        store = CostStore(tmp_path / "c.json")
        store.record("conv", "bucket", 0.5, predicted=100.0, label="a->b")
        entry = store.lookup("conv", "bucket")
        assert entry["seconds"] == 0.5
        assert entry["predicted"] == 100.0
        assert entry["label"] == "a->b"
        assert entry["count"] == 1

    def test_miss_returns_none(self, tmp_path):
        store = CostStore(tmp_path / "c.json")
        assert store.lookup("conv", "bucket") is None

    def test_ewma_folds_measurements(self, tmp_path):
        store = CostStore(tmp_path / "c.json")
        store.record("conv", "bucket", 1.0)
        store.record("conv", "bucket", 0.0)
        entry = store.lookup("conv", "bucket")
        assert entry["count"] == 2
        assert 0.0 < entry["seconds"] < 1.0

    def test_persists_across_instances(self, tmp_path):
        path = tmp_path / "c.json"
        CostStore(path).record("conv", "bucket", 0.25)
        entry = CostStore(path).lookup("conv", "bucket")
        assert entry["seconds"] == 0.25

    def test_corrupt_file_treated_as_empty(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("not json{{{")
        store = CostStore(path)
        assert store.lookup("conv", "bucket") is None
        store.record("conv", "bucket", 1.0)
        assert json.loads(path.read_text())["schema"] == 1


class TestEviction:
    def test_oldest_updated_evicted(self, tmp_path, monkeypatch):
        monkeypatch.setattr(coststore, "MAX_ENTRIES", 4)
        store = CostStore(tmp_path / "c.json")
        for n in range(6):
            store.record(f"conv{n}", "bucket", 0.1)
        assert len(store) == 4
        # The two earliest records are gone; the latest survive.
        assert store.lookup("conv0", "bucket") is None
        assert store.lookup("conv1", "bucket") is None
        assert store.lookup("conv5", "bucket") is not None

    def test_refreshed_entry_survives(self, tmp_path, monkeypatch):
        monkeypatch.setattr(coststore, "MAX_ENTRIES", 2)
        store = CostStore(tmp_path / "c.json")
        store.record("old", "bucket", 0.1)
        store.record("mid", "bucket", 0.1)
        store.record("old", "bucket", 0.2)  # refresh: now newer than mid
        store.record("new", "bucket", 0.1)
        assert store.lookup("mid", "bucket") is None
        assert store.lookup("old", "bucket") is not None


class TestCalibration:
    def test_none_when_empty(self, tmp_path):
        assert CostStore(tmp_path / "c.json").calibration() is None

    def test_median_ratio(self, tmp_path):
        store = CostStore(tmp_path / "c.json")
        store.record("a", "b", 1.0, predicted=10.0)   # ratio 0.1
        store.record("c", "b", 4.0, predicted=10.0)   # ratio 0.4
        store.record("d", "b", 90.0, predicted=10.0)  # ratio 9.0
        assert store.calibration() == pytest.approx(0.4)

    def test_entries_without_prediction_ignored(self, tmp_path):
        store = CostStore(tmp_path / "c.json")
        store.record("a", "b", 1.0)
        assert store.calibration() is None


class TestKnobs:
    def test_dir_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_COSTS_DIR", str(tmp_path / "elsewhere"))
        assert costs_root() == tmp_path / "elsewhere"
        # One store file directly under the root, whatever the code version.
        assert CostStore().path == tmp_path / "elsewhere" / "costs.json"

    def test_default_store_singleton_resets(self):
        first = default_cost_store()
        assert default_cost_store() is first
        reset_default_store()
        assert default_cost_store() is not first


class TestConversionKey:
    def test_keyed_by_generated_code(self):
        from repro import get_conversion

        a = get_conversion("SCOO", "CSR")
        b = get_conversion("SCOO", "CSC")
        assert conversion_cost_key(a) == conversion_cost_key(a)
        assert conversion_cost_key(a) != conversion_cost_key(b)

    def test_backend_distinguishes(self):
        from repro import get_conversion

        scalar = get_conversion("SCOO", "CSR", backend="python")
        vector = get_conversion("SCOO", "CSR", backend="numpy")
        assert conversion_cost_key(scalar) != conversion_cost_key(vector)

    def test_code_version_distinguishes(self, monkeypatch):
        # Entries measured against other code are never looked up again.
        from repro import codeversion, get_conversion

        conv = get_conversion("SCOO", "CSR")
        current = conversion_cost_key(conv)
        monkeypatch.setattr(codeversion, "_CACHED_HASH", "0" * 64)
        assert conversion_cost_key(conv) != current


class TestFreshFiles:
    """A flush moves no file onto an existing one, which stalls on
    ext4, and a load never reads the document half replaced."""

    def test_record_renames_onto_no_existing_path(self, tmp_path,
                                                   monkeypatch):
        path = tmp_path / "c.json"
        CostStore(path).record("a", "bucket", 1.0)
        renames = []
        for name in ("replace", "rename"):
            def spy(src, dst, *args, _real=getattr(os, name), **kwargs):
                assert not os.path.exists(dst), f"{dst} exists"
                renames.append(Path(dst))
                return _real(src, dst, *args, **kwargs)

            monkeypatch.setattr(os, name, spy)
        CostStore(path).record("b", "bucket", 2.0)
        monkeypatch.undo()
        assert renames == [path]
        assert set(CostStore(path).entries()) == {"a|bucket", "b|bucket"}
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "c.json", "c.json.lock"]

    def test_load_waits_for_a_flush_in_progress(self, tmp_path):
        path = tmp_path / "c.json"
        CostStore(path).record("a", "bucket", 1.0)
        document = path.read_text()
        loaded = []
        reader = threading.Thread(
            target=lambda: loaded.append(
                CostStore(path).lookup("a", "bucket")
            )
        )
        with file_lock(path):
            # A flush between unlinking the document and renaming its
            # successor into place.
            path.unlink()
            reader.start()
            reader.join(timeout=0.2)
            assert reader.is_alive()
            path.write_text(document)
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert loaded[0]["seconds"] == 1.0


class TestMaintenance:
    def test_clear_and_stats(self, tmp_path):
        store = CostStore(tmp_path / "c.json")
        store.record("a", "b", 1.0, predicted=2.0)
        info = store.stats()
        assert info["entries"] == 1
        assert info["measurements"] == 1
        assert info["calibration"] == pytest.approx(0.5)
        assert store.clear() == 1
        assert len(store) == 0
