"""Scenario calibration: testbeds built from a desired optimal triple."""

import pytest

from repro.emulator import Testbed
from repro.emulator import testbed_for_optimal as calibrated_testbed
from repro.utils.errors import ConfigError


class TestCalibration:
    def test_round_trip_optimal(self):
        cfg = calibrated_testbed((13, 7, 5), 1000.0)
        assert cfg.optimal_threads() == (13, 7, 5)

    def test_arbitrary_triples(self):
        for triple in [(1, 1, 1), (20, 3, 9), (5, 14, 6)]:
            cfg = calibrated_testbed(triple, 2500.0)
            assert cfg.optimal_threads() == triple

    def test_headroom_moves_bottleneck_to_network(self):
        cfg = calibrated_testbed((10, 10, 10), 1000.0, headroom=1.5)
        assert cfg.bottleneck_bandwidth == pytest.approx(1000.0)
        assert cfg.source.bandwidth > 1000.0

    def test_runs_on_testbed(self):
        cfg = calibrated_testbed((4, 8, 2), 800.0)
        tb = Testbed(cfg, rng=0)
        flows = [tb.advance((4, 8, 2)) for _ in range(5)][-1]
        assert flows.throughput_write == pytest.approx(800.0, rel=0.1)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            calibrated_testbed((0, 1, 1), 1000.0)
        with pytest.raises(ConfigError):
            calibrated_testbed((1, 1), 1000.0)
