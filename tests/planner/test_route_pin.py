"""Pinned planner routes and tuner choices.

``routes.json`` holds the cheapest route over the default planners'
graphs (``PLANNABLE_2D`` and ``PLANNABLE_3D``) for every ordered pair on
every tier, stats-less and for two profiled 64×64 matrices, plus the
tuner's prediction-only choice per tunable family.  Each run starts from
an empty learned-cost store, so only the cost models decide.  A change to
the cost features or the cost models must leave every entry where it is.

To re-record the table after a change that means to move a route, from
the repository root::

    PYTHONPATH=src python -m tests.planner.test_route_pin
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.datagen.matrices import banded, power_law, stencil_offsets
from repro.planner import PLANNABLE_2D, PLANNABLE_3D, ConversionPlanner
from repro.planner.coststore import CostStore
from repro.planner.stats import matrix_stats
from repro.planner.tune import TUNABLE, TuneError, tune
from repro.synthesis import SynthesisError
from tests.tiers import needs_c

TABLE = pathlib.Path(__file__).with_name("routes.json")


def _matrices() -> dict:
    return {
        "banded": banded(64, 64, stencil_offsets(5), seed=0),
        "power_law": power_law(64, 64, nnz=300, seed=0),
    }


def _routes(planner, formats, profiles) -> dict:
    table = {}
    for name, stats in profiles.items():
        rows = {}
        for src in formats:
            for dst in formats:
                try:
                    route = "->".join(planner.plan(src, dst, stats=stats).formats)
                except SynthesisError:
                    route = None
                rows[f"{src}->{dst}"] = route
        table[name] = rows
    return table


def backend_table(backend: str, store: CostStore) -> dict:
    """Every route and tuner choice on one tier."""
    matrices = _matrices()
    profiles = {"none": None}
    profiles.update({k: matrix_stats(v) for k, v in matrices.items()})
    choices = {}
    for name, coo in matrices.items():
        row = {}
        for family in TUNABLE:
            try:
                result = tune(
                    coo, family, backend=backend, measure=False, store=store
                )
                row[family] = result.best.candidate.label
            except TuneError:
                row[family] = None
        choices[name] = row
    return {
        "2d": _routes(
            ConversionPlanner(PLANNABLE_2D, backend=backend, cost_store=store),
            PLANNABLE_2D,
            profiles,
        ),
        "3d": _routes(
            ConversionPlanner(PLANNABLE_3D, backend=backend, cost_store=store),
            PLANNABLE_3D,
            profiles,
        ),
        "tune": choices,
    }


@pytest.mark.parametrize(
    "backend", ["python", "numpy", pytest.param("c", marks=needs_c)]
)
def test_routes_and_tuner_choices_are_pinned(backend, tmp_path):
    expected = json.loads(TABLE.read_text())[backend]
    assert backend_table(backend, CostStore(tmp_path / "costs.json")) == expected


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        store = CostStore(pathlib.Path(scratch) / "costs.json")
        table = {b: backend_table(b, store) for b in ("python", "numpy", "c")}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
