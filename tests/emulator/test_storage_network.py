"""Storage device and network path models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulator import NetworkConfig, NetworkPath, StorageConfig, StorageDevice
from repro.emulator.noise import BackgroundTraffic
from repro.utils.errors import ConfigError
from tests.emulator import testbed_oracle as oracle


class TestStorageDevice:
    def test_linear_scaling_below_saturation(self):
        dev = StorageDevice(StorageConfig(tpt=100, bandwidth=1000))
        assert dev.aggregate_rate(5) == pytest.approx(500.0)

    def test_ceiling_at_bandwidth(self):
        dev = StorageDevice(StorageConfig(tpt=100, bandwidth=1000, degradation_alpha=0.0))
        assert dev.aggregate_rate(20) == pytest.approx(1000.0)

    def test_over_concurrency_degrades(self):
        dev = StorageDevice(StorageConfig(tpt=100, bandwidth=1000))
        at_knee = dev.aggregate_rate(dev.config.knee)
        far_past = dev.aggregate_rate(dev.config.knee + 20)
        assert far_past < at_knee

    def test_zero_threads_zero_rate(self):
        dev = StorageDevice(StorageConfig())
        assert dev.aggregate_rate(0) == 0.0

    def test_efficiency_is_one_at_or_below_knee(self):
        dev = StorageDevice(StorageConfig(tpt=100, bandwidth=1000))
        assert dev.efficiency(dev.config.knee) == 1.0

    def test_file_efficiency_scales(self):
        dev = StorageDevice(StorageConfig(tpt=100, bandwidth=1000))
        assert dev.aggregate_rate(5, file_efficiency=0.5) == pytest.approx(250.0)

    def test_explicit_knee(self):
        cfg = StorageConfig(tpt=100, bandwidth=1000, degradation_knee=3)
        assert cfg.knee == 3

    def test_default_knee_past_saturation(self):
        cfg = StorageConfig(tpt=100, bandwidth=1000)
        assert cfg.knee == cfg.saturation_threads + 2

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            StorageConfig(tpt=-1)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=200))
    def test_rate_bounded_property(self, threads):
        """Property: aggregate rate never exceeds the device ceiling."""
        dev = StorageDevice(StorageConfig(tpt=100, bandwidth=1000))
        assert 0.0 <= dev.aggregate_rate(threads) <= 1000.0


class TestNetworkPath:
    def test_per_stream_cap(self):
        path = NetworkPath(NetworkConfig(tpt=100, capacity=1000, ramp_time=0.0))
        assert path.aggregate_rate(3, t=0.0) == pytest.approx(300.0)

    def test_capacity_ceiling(self):
        path = NetworkPath(NetworkConfig(tpt=100, capacity=1000, ramp_time=0.0,
                                         degradation_alpha=0.0))
        assert path.aggregate_rate(50, t=0.0) == pytest.approx(1000.0)

    def test_congestion_collapse_past_knee(self):
        cfg = NetworkConfig(tpt=100, capacity=1000, ramp_time=0.0)
        path = NetworkPath(cfg)
        assert path.aggregate_rate(cfg.knee + 30, 0.0) < path.aggregate_rate(cfg.knee, 0.0)

    def test_background_traffic_steals_capacity(self):
        bg = BackgroundTraffic(peak=500.0, mean_holding_time=1e9, rng=0)
        bg._level, bg._until = 400.0, 1e12  # pin a known level
        path = NetworkPath(NetworkConfig(tpt=100, capacity=1000, ramp_time=0.0), bg)
        assert path.aggregate_rate(20, t=1.0) <= 600.0 * 1.01

    def test_ramp_limits_fresh_connections(self):
        path = NetworkPath(NetworkConfig(tpt=100, capacity=10000, ramp_time=2.0))
        streams = oracle.advance_ramp(path, 20, dt=0.1)
        assert streams < 20

    def test_ramp_reaches_target(self):
        path = NetworkPath(NetworkConfig(tpt=100, capacity=10000, ramp_time=2.0))
        for _ in range(100):
            streams = oracle.advance_ramp(path, 20, dt=0.1)
        assert streams == pytest.approx(20.0)

    def test_closing_connections_immediate(self):
        path = NetworkPath(NetworkConfig(ramp_time=2.0))
        oracle.advance_ramp(path, 20, dt=10.0)
        assert oracle.advance_ramp(path, 5, dt=0.01) == 5.0

    def test_reset(self):
        path = NetworkPath(NetworkConfig())
        oracle.advance_ramp(path, 10, dt=10.0)
        path.reset()
        assert path.effective_streams == 0.0

    def test_zero_ramp_time_instant(self):
        path = NetworkPath(NetworkConfig(ramp_time=0.0))
        assert oracle.advance_ramp(path, 15, dt=0.001) == 15.0


class TestBackgroundTraffic:
    def test_disabled_when_peak_zero(self):
        bg = BackgroundTraffic(0.0)
        assert bg.level_at(100.0) == 0.0

    def test_level_within_peak(self):
        bg = BackgroundTraffic(peak=300.0, mean_holding_time=5.0, rng=0)
        for t in range(0, 100, 7):
            assert 0.0 <= bg.level_at(float(t)) <= 300.0

    def test_piecewise_constant_within_holding(self):
        bg = BackgroundTraffic(peak=300.0, mean_holding_time=1e6, rng=0)
        assert bg.level_at(1.0) == bg.level_at(2.0)

    def test_reset(self):
        bg = BackgroundTraffic(peak=300.0, rng=0)
        bg.level_at(50.0)
        bg.reset()
        assert bg._until == 0.0
