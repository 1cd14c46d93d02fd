import pytest

from perfbench import probe


def test_scaling_uses_the_mean_of_the_adjacent_probes():
    # Probes of 2 ms and 4 ms average 3 ms: the machine ran at a third
    # of reference speed, so 0.9 raw seconds are 0.3 reference seconds.
    assert probe.factor(0.002, 0.004, reference_s=0.001) == pytest.approx(1 / 3)
    assert 0.9 * probe.factor(0.002, 0.004, reference_s=0.001) == pytest.approx(0.3)


def test_drift_cancels():
    # The same work on a machine half as fast: raw time and probes both
    # double, the scaled time stays.
    fast = 0.5 * probe.factor(0.001, 0.001)
    slow = 1.0 * probe.factor(0.002, 0.002)
    assert fast == pytest.approx(slow) == pytest.approx(0.5)


def test_probe_readings_are_positive_and_kept():
    recorder = probe.Probe()
    reading = recorder.sample()
    assert reading > 0
    assert recorder.readings == [reading]


def test_non_positive_probe_is_rejected():
    with pytest.raises(ValueError):
        probe.factor(0.0, 0.001)
