"""Shared fixtures: every planner test gets an isolated cost store."""

import pytest

from repro.planner.coststore import reset_default_store


@pytest.fixture(autouse=True)
def isolated_costs(tmp_path, monkeypatch):
    """Point the learned-cost store at a per-test directory."""
    monkeypatch.setenv("REPRO_COSTS_DIR", str(tmp_path / "costs"))
    reset_default_store()
    yield tmp_path / "costs"
    reset_default_store()
