"""Scenario sampling and profile-to-config bridging."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import SimulatorConfig, sample_scenario, scenario_from_profile


class TestFromProfile:
    def test_copies_rates(self):
        cfg = scenario_from_profile((80, 160, 200), (900, 1000, 950), max_threads=25)
        assert cfg.tpt == (80, 160, 200)
        assert cfg.bandwidth == (900, 1000, 950)
        assert cfg.max_threads == 25
        assert cfg.bottleneck == 900


class TestSampleScenario:
    def test_deterministic_for_seed(self):
        assert sample_scenario(5) == sample_scenario(5)

    def test_different_seeds_differ(self):
        assert sample_scenario(1) != sample_scenario(2)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_sampled_scenario_is_valid(self, seed):
        """Property: any sampled scenario passes config validation and has a
        feasible optimum."""
        cfg = sample_scenario(seed)
        optimal = cfg.optimal_threads()
        assert all(1 <= n <= cfg.max_threads for n in optimal)
        assert cfg.bottleneck == min(cfg.bandwidth)

    def test_bottleneck_in_requested_range(self):
        for seed in range(10):
            cfg = sample_scenario(seed, bottleneck_range=(100.0, 200.0))
            assert 100.0 <= cfg.bottleneck <= 200.0

    def test_jitter_around_base(self):
        base = SimulatorConfig(tpt_read=100.0)
        rng = np.random.default_rng(0)
        for _ in range(10):
            jittered = sample_scenario(rng, base=base, jitter=0.1)
            assert 90.0 <= jittered.tpt_read <= 110.0

    def test_jittered_rates_are_python_floats(self):
        """Each rate is a ``float`` equal to the ``np.float64`` product."""
        base = SimulatorConfig(tpt_read=97.3, tpt_network=151.1, bandwidth_write=777.7)
        jittered = sample_scenario(3, base=base)
        factors = np.random.default_rng(3).uniform(1.0 - 0.2, 1.0 + 0.2, size=6)
        rates = ("tpt_read", "tpt_network", "tpt_write",
                 "bandwidth_read", "bandwidth_network", "bandwidth_write")
        for name, factor in zip(rates, factors):
            value = getattr(jittered, name)
            assert type(value) is float, name
            assert value == getattr(base, name) * factor, name

    def test_jitter_preserves_buffers(self):
        base = SimulatorConfig(sender_buffer_capacity=123456789.0)
        jittered = sample_scenario(0, base=base)
        assert jittered.sender_buffer_capacity == pytest.approx(123456789.0)
