"""Bootstrap statistics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import ConfidenceInterval, bootstrap_ci, ratio_ci


class TestBootstrapCi:
    def test_point_estimate_is_statistic(self):
        ci = bootstrap_ci([1.0, 2.0, 3.0])
        assert ci.estimate == pytest.approx(2.0)

    def test_interval_contains_estimate(self):
        ci = bootstrap_ci(np.random.default_rng(0).normal(10, 2, size=50))
        assert ci.low <= ci.estimate <= ci.high

    def test_tight_for_constant_sample(self):
        ci = bootstrap_ci([5.0] * 20)
        assert ci.low == ci.high == 5.0

    def test_single_sample_degenerate(self):
        ci = bootstrap_ci([7.0])
        assert (ci.low, ci.estimate, ci.high) == (7.0, 7.0, 7.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])

    def test_deterministic_for_seed(self):
        data = [1.0, 5.0, 3.0, 2.0]
        a, b = bootstrap_ci(data, rng=3), bootstrap_ci(data, rng=3)
        assert (a.low, a.high) == (b.low, b.high)

    def test_custom_statistic(self):
        ci = bootstrap_ci([1.0, 2.0, 100.0], statistic=np.median)
        assert ci.estimate == 2.0

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=30))
    def test_coverage_ordering_property(self, values):
        """Property: low <= estimate' for mean in [low, high] interval."""
        ci = bootstrap_ci(values, n_boot=200)
        assert ci.low <= ci.high
        assert np.mean(values) in ci

    def test_contains(self):
        ci = ConfidenceInterval(2.0, 1.0, 3.0, 0.95)
        assert 2.5 in ci
        assert 4.0 not in ci


class TestRatioCi:
    def test_point_estimate(self):
        ci = ratio_ci([10.0, 12.0], [5.0, 5.0])
        assert ci.estimate == pytest.approx(2.2)

    def test_single_samples(self):
        ci = ratio_ci([10.0], [5.0])
        assert ci.estimate == 2.0
        assert ci.low == ci.high == 2.0

    def test_zero_denominator_raises(self):
        with pytest.raises(ValueError):
            ratio_ci([1.0], [0.0])

    def test_interval_brackets_true_ratio(self):
        rng = np.random.default_rng(1)
        num = rng.normal(20, 1, size=30)
        den = rng.normal(10, 1, size=30)
        ci = ratio_ci(num, den)
        assert ci.low < 2.0 < ci.high

