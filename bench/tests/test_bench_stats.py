"""The percentile rule and the bound comparisons."""

import pytest

import stats

LOWER = {"name": "run_s", "better": "lower", "bound": 0.10}
HIGHER = {"name": "packets_per_s", "better": "higher", "bound": 0.10}
SETUP = {"name": "setup_s", "better": "lower", "bound": 0.25}


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert stats.percentile(samples, 0.50) == 50
    assert stats.percentile(samples, 0.95) == 95
    assert stats.percentile([7.0], 0.95) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 0.5)


def test_a_percentile_needs_ten_samples_beyond_it():
    assert stats.samples_beyond(200, 0.95) == 10
    assert stats.supported(200, 0.95)
    assert not stats.supported(199, 0.95)
    assert stats.supported(20, 0.50) and not stats.supported(19, 0.50)
    assert stats.highest_supported_percentile(1000) == 99
    assert stats.highest_supported_percentile(200) == 95
    assert stats.highest_supported_percentile(40) == 75
    assert stats.highest_supported_percentile(10) is None


def test_bounds_follow_the_direction_of_the_metric():
    assert stats.within_bound(LOWER, 10.0, 11.0)
    assert not stats.within_bound(LOWER, 10.0, 11.01)
    assert stats.within_bound(LOWER, 10.0, 5.0)          # better is fine
    assert stats.within_bound(HIGHER, 100.0, 90.0)
    assert not stats.within_bound(HIGHER, 100.0, 89.9)
    assert stats.within_bound(HIGHER, 100.0, 500.0)
    assert stats.worsening(HIGHER, 100.0, 90.0) == pytest.approx(0.10)
    assert stats.worsening(LOWER, 10.0, 9.0) == pytest.approx(-0.10)


def test_agreement_is_symmetric():
    assert stats.agree(LOWER, 10.0, 10.9)
    assert stats.agree(LOWER, 10.9, 10.0)
    assert not stats.agree(LOWER, 10.0, 11.5)
    assert not stats.agree(LOWER, 11.5, 10.0)


def test_small_setups_get_an_absolute_floor():
    # 40 ms -> 80 ms is +100%, but 40 ms of timer noise.
    assert stats.within_bound(SETUP, 0.04, 0.08)
    assert not stats.within_bound(SETUP, 0.04, 0.10)
    # At or above 0.2 s only the relative bound applies ...
    assert not stats.within_bound(SETUP, 0.20, 0.26)
    assert stats.within_bound(SETUP, 1.0, 1.25)
    # ... and no other metric has a floor.
    assert not stats.within_bound(LOWER, 0.04, 0.08)


def test_one_failed_operation_fails():
    assert stats.no_failures(1000, 0)
    assert not stats.no_failures(1_000_000, 1)
    with pytest.raises(ValueError):
        stats.no_failures(0, 0)


def test_quartile_spread_matches_the_drivers_rule():
    values = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.3, 9.7, 10.1, 9.9]
    import statistics
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))
