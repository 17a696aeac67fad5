"""Every listed cell synthesizes on its tier and binds as declared."""

import json

import pytest

import workloads
from repro import container_format, get_conversion
from repro.backends import BackendUnavailableError, get_backend
from repro.serve.protocol import parse_convert_request


@pytest.fixture(scope="module")
def c_tier():
    try:
        get_backend("c").require()
    except BackendUnavailableError as err:
        pytest.skip(f"the C tier is unavailable: {err}")


@pytest.fixture(scope="module", params=["fig2-large", "all-pairs"])
def cells(request, c_tier):
    build = {
        "fig2-large": workloads.fig2_large,
        "all-pairs": workloads.all_pairs,
    }[request.param]
    return build(0)


def test_cells_synthesize_on_their_tier(cells):
    for cell in cells:
        assert container_format(
            cell.source, assume_sorted=cell.assume_sorted
        ) == cell.src, cell.id
        conversion = get_conversion(cell.src, cell.dst, backend=cell.backend)
        assert conversion.backend == cell.backend, cell.id


def test_cell_counts():
    # Input-free: the pair lists alone.
    pairs_2d = [(s, d) for s in workloads.SOURCES_2D
                for d in workloads.DESTS_2D if s != d]
    pairs_3d = [(s, d) for s in workloads.SOURCES_3D
                for d in workloads.DESTS_3D if s != d]
    assert (len(pairs_2d), len(pairs_3d)) == (49, 9)
    assert "ELL" not in workloads.DESTS_2D
    assert "CSF" not in workloads.DESTS_3D


def test_all_pairs_covers_every_pair_on_every_tier(c_tier):
    cells = workloads.all_pairs(0)
    assert len(cells) == 58 * 3
    assert len({c.id for c in cells}) == len(cells)


def test_serve_kinds_synthesize_on_the_c_tier(c_tier):
    kinds = workloads.serve_kinds(0)
    assert sum(k.large for k in kinds) == 4
    for kind in kinds:
        matrix = parse_convert_request(json.loads(kind.body))["matrix"]
        src = container_format(
            matrix, assume_sorted=matrix.is_sorted_lexicographic()
        )
        get_conversion(src, kind.dst, backend="c")
    schedule = workloads.serve_schedule(0, kinds, client=1, blocks=50)
    large = sum(kinds[i].large for i in schedule)
    assert 4 * large == len(schedule) == 200
    assert schedule != workloads.serve_schedule(0, kinds, client=0, blocks=50)
