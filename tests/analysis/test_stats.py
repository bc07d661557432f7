"""Tests for the statistics helpers."""

import numpy as np
import pytest

from repro.analysis.stats import (Cdf, balance_stddevs, significant_fraction,
                                  spearman_matrix)


class TestCdf:
    def test_percentiles(self):
        cdf = Cdf(range(1, 101))
        assert cdf.median == pytest.approx(50.5)
        assert cdf.min == 1
        assert cdf.max == 100
        assert cdf.percentile(90) == pytest.approx(90.1)

    def test_at_fraction(self):
        cdf = Cdf([1, 2, 3, 4])
        assert cdf.at(2) == 0.5
        assert cdf.at(0) == 0.0
        assert cdf.at(10) == 1.0

    def test_points_end_at_one(self):
        cdf = Cdf(range(1000))
        pts = cdf.points(max_points=50)
        assert pts[-1][1] == 1.0
        assert len(pts) <= 52
        xs = [x for x, _y in pts]
        assert xs == sorted(xs)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Cdf([])


class TestBalanceStddevs:
    def test_per_switch_per_round(self):
        rounds = [
            {"leaf0": {3: 10.0, 4: 14.0}, "leaf1": {3: 5.0, 4: 5.0}},
            {"leaf0": {3: 8.0, 4: 8.0}},
        ]
        out = balance_stddevs(rounds)
        assert len(out) == 3
        assert out[0] == pytest.approx(2.0)   # std of (10, 14)
        assert out[1] == pytest.approx(0.0)
        assert out[2] == pytest.approx(0.0)

    def test_single_uplink_switch_skipped(self):
        rounds = [{"leaf0": {3: 10.0}}]
        assert balance_stddevs(rounds) == []


class TestSpearman:
    def test_perfect_monotonic_correlation(self):
        series = {"a": [1, 2, 3, 4, 5], "b": [10, 20, 30, 40, 50]}
        result = spearman_matrix(series)
        assert result.coefficient("a", "b") == pytest.approx(1.0)
        assert result.p_of("a", "b") < 0.05

    def test_anticorrelation(self):
        series = {"a": [1, 2, 3, 4, 5], "b": [5, 4, 3, 2, 1]}
        result = spearman_matrix(series)
        assert result.coefficient("a", "b") == pytest.approx(-1.0)

    def test_independent_noise_insignificant(self):
        rng = np.random.default_rng(1)
        series = {"a": rng.normal(size=60), "b": rng.normal(size=60)}
        result = spearman_matrix(series)
        assert result.p_of("a", "b") > 0.01  # almost surely

    def test_constant_series_excluded(self):
        series = {"a": [1, 2, 3, 4], "flat": [7, 7, 7, 7]}
        result = spearman_matrix(series)
        assert np.isnan(result.coefficient("a", "flat"))
        assert result.significant(0.99) == {}

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            spearman_matrix({"a": [1, 2], "b": [1, 2, 3]})

    def test_needs_two_series(self):
        with pytest.raises(ValueError):
            spearman_matrix({"a": [1, 2, 3]})

    def test_significant_filter(self):
        series = {"a": list(range(30)), "b": list(range(30)),
                  "noise": list(np.random.default_rng(2).normal(size=30))}
        result = spearman_matrix(series)
        sig = result.significant(alpha=0.01)
        assert ("a", "b") in sig

    def test_significant_fraction(self):
        series = {"a": list(range(30)), "b": list(range(30)),
                  "c": list(range(30))}
        result = spearman_matrix(series)
        assert significant_fraction(result, alpha=0.05) == 1.0
