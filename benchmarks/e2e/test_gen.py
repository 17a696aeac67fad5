import numpy as np
import pytest

import gen
from check import entries, same_entries


def _rng(seed):
    return np.random.default_rng([seed, 1])


FAMILIES = {
    "uniform": lambda r: gen.uniform(60, 300, r),
    "banded": lambda r: gen.banded(80, 4.975, r),
    "powerlaw": lambda r: gen.powerlaw(90, 300, r),
    "tensor3d": lambda r: gen.tensor3d((500, 400, 16), 300, r),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_generators_are_deterministic_per_seed(family):
    a = FAMILIES[family](_rng(3))
    b = FAMILIES[family](_rng(3))
    c = FAMILIES[family](_rng(4))
    assert a.shape == b.shape
    assert all(np.array_equal(x, y) for x, y in zip(a.coords, b.coords))
    assert np.array_equal(a.val, b.val)
    assert not np.array_equal(a.val[: min(a.nnz, c.nnz)],
                              c.val[: min(a.nnz, c.nnz)])


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_triplets_are_sorted_unique_and_in_bounds(family):
    t = FAMILIES[family](_rng(0))
    keys = list(zip(*(c.tolist() for c in t.coords)))
    assert keys == sorted(set(keys))
    for col, size in zip(t.coords, t.shape):
        assert col.min() >= 0 and col.max() < size
    assert t.val.min() >= 0.5


def test_exact_nnz_for_drawn_families():
    assert gen.uniform(60, 300, _rng(0)).nnz == 300
    assert gen.powerlaw(90, 300, _rng(0)).nnz == 300
    assert gen.tensor3d((500, 400, 16), 300, _rng(0)).nnz == 300


def test_tensor_modes_fit_the_c_tier_morton_key():
    with pytest.raises(ValueError):
        gen.tensor3d((gen.MAX_MODE_3D + 1, 4, 4), 10, _rng(0))


BUILDERS_2D = {
    "coo": gen.coo,
    "shuffled_coo": lambda t: gen.shuffled_coo(t, _rng(9)),
    "mcoo": gen.mcoo,
    "csr": gen.csr,
    "csc": gen.csc,
    "dia": gen.dia,
    "ell": gen.ell,
    "bcsr": gen.bcsr,
}
BUILDERS_3D = {
    "coo3d": gen.coo3d,
    "shuffled_coo3d": lambda t: gen.shuffled_coo3d(t, _rng(9)),
    "mcoo3": gen.mcoo3,
    "csf": gen.csf,
}


@pytest.mark.parametrize("name", sorted(BUILDERS_2D))
@pytest.mark.parametrize("family", ["uniform", "banded", "powerlaw"])
def test_2d_sources_hold_exactly_the_generated_entries(name, family):
    t = FAMILIES[family](_rng(1))
    container = BUILDERS_2D[name](t)
    container.check()
    assert same_entries(container, t)


@pytest.mark.parametrize("name", sorted(BUILDERS_3D))
def test_3d_sources_hold_exactly_the_generated_entries(name):
    t = FAMILIES["tensor3d"](_rng(1))
    container = BUILDERS_3D[name](t)
    container.check()
    assert same_entries(container, t)


def test_same_entries_detects_a_changed_value():
    t = FAMILIES["banded"](_rng(1))
    csr = gen.csr(t)
    csr.val[3] += 1.0
    assert not same_entries(csr, t)
    coords, _val = entries(csr)
    assert len(coords[0]) == t.nnz
