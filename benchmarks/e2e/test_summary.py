import math
import statistics

import pytest

import summary


def test_geomean():
    assert summary.geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert summary.geomean([5.0]) == pytest.approx(5.0)
    with pytest.raises(ValueError):
        summary.geomean([1.0, 0.0])


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert summary.percentile(values, 50) == 50
    assert summary.percentile(values, 90) == 90
    assert summary.percentile(values, 100) == 100
    assert summary.percentile([7.0], 90) == 7.0
    # Never interpolates between two size classes.
    mix = [1.0] * 75 + [10.0] * 25
    assert summary.percentile(mix, 50) == 1.0
    assert summary.percentile(mix, 90) == 10.0


def test_quartiles_match_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1, 9.9, 10.0]
    q1, q2, q3 = summary.quartiles(values)
    assert (q1, q2, q3) == tuple(statistics.quantiles(values, n=4))
    assert summary.median(values) == q2


def test_residue_share():
    assert summary.residue_share(100.0, 95.0) == pytest.approx(0.05)
    assert summary.residue_share(100.0, 104.0) == pytest.approx(0.04)
    assert math.isclose(summary.residue_share(3.0, 3.0), 0.0)
