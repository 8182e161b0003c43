"""The yardstick's arithmetic: what is scaled, which way, by how much."""

import gc

import pytest

from perfbench import hostspeed, metrics


def test_speed_is_reference_over_mean_pass():
    meter = hostspeed.Meter()
    assert meter.speed == 1.0  # nothing sampled: nothing to correct
    slow = hostspeed.REFERENCE_PASS_S * 2
    meter.points = [[slow], [slow, slow]]
    assert meter.speed == pytest.approx(0.5)
    # The mean, not the median: a wall integrates over every disturbance.
    meter.points = [[hostspeed.REFERENCE_PASS_S] * 3, [4 * hostspeed.REFERENCE_PASS_S]]
    assert meter.speed == pytest.approx(4 / 7)


def test_times_shrink_and_rates_grow_on_a_slow_host():
    units = {m.name: m.unit for m in metrics.END_TO_END}
    measured = {
        "setup_s": 2.0,
        "records_per_s": 1000.0,
        "verdict_lag_ms_p50": 30.0,
        "culprit_top1_accuracy": 0.9,
        "peak_rss_mb": 100.0,
    }
    scaled = hostspeed.at_reference_speed(measured, units, speed=0.5)
    assert scaled == {
        "setup_s": 1.0,
        "records_per_s": 2000.0,
        "verdict_lag_ms_p50": 15.0,
        "culprit_top1_accuracy": 0.9,  # not a time: untouched
        "peak_rss_mb": 100.0,
    }
    assert hostspeed.at_reference_speed(measured, units, speed=1.0) == measured


def test_sampling_takes_the_passes_asked_for_and_restores_the_collector():
    meter = hostspeed.Meter()
    assert gc.isenabled()
    meter.sample(2)
    assert gc.isenabled()
    assert [len(point) for point in meter.points] == [2]
    assert all(duration > 0 for duration in meter.points[0])
    capped = hostspeed.Meter(passes_cap=1)
    capped.sample_for(10.0)
    assert [len(point) for point in capped.points] == [1]
    # The kernel is fixed work: it returns the same checksum every pass.
    assert hostspeed.yardstick() == hostspeed.yardstick()
