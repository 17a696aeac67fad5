"""Host-speed scaling: the probe, the clock, and the timings it scales."""

import gc
import time

import pytest

import speed
import worker


def _clock(reading):
    readings = iter(reading if isinstance(reading, list) else [reading] * 99)
    return speed.Clock(probe_fn=lambda: next(readings))


def test_probe_is_a_positive_time():
    assert 0 < speed.probe() < 1.0


def test_clock_scales_to_the_nominal_probe_time():
    clock = _clock(2 * speed.NOMINAL_S)
    assert clock.factor == pytest.approx(0.5)
    assert clock.readings == [2 * speed.NOMINAL_S]


def test_clock_probes_again_only_after_its_period(monkeypatch):
    monkeypatch.setattr(speed, "PERIOD_S", 3600.0)
    clock = _clock([speed.NOMINAL_S, speed.NOMINAL_S / 2])
    assert clock.tick() == pytest.approx(1.0)
    assert len(clock.readings) == 1
    assert clock.refresh() == pytest.approx(2.0)
    assert len(clock.readings) == 2

    monkeypatch.setattr(speed, "PERIOD_S", 0.0)
    clock = _clock([speed.NOMINAL_S, speed.NOMINAL_S / 2])
    assert clock.tick() == pytest.approx(2.0)


def test_timed_samples_are_scaled_by_the_clock(small_cells):
    outs, _firsts = worker.first_conversions(small_cells)
    oracle, _problems = worker.oracles(small_cells, outs)

    def slow(cell):
        time.sleep(0.01)
        return worker.convert_cell(cell)

    try:
        res = worker.timed_phase(small_cells, oracle, 0.0,
                                 _clock(speed.NOMINAL_S / 3), convert_fn=slow)
    finally:
        gc.unfreeze()
    samples = [s for v in res["samples"].values() for s in v]
    assert min(samples) >= 0.03
    assert res["probe_s"][0] == pytest.approx(speed.NOMINAL_S / 3)
