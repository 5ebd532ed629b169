"""Staging buffers and noise processes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.emulator import StagingBuffer
from repro.emulator.noise import BackgroundTraffic, MultiplicativeNoise
from repro.utils.errors import SimulationError
from tests.emulator import testbed_oracle as oracle


class TestStagingBuffer:
    """The buffer semantics the testbed kernel inlines, on the oracle's
    deposit/withdraw (the kernel is held to the oracle bit for bit)."""

    def test_deposit_withdraw(self):
        buf = StagingBuffer(100.0)
        assert oracle.deposit(buf, 30.0) == 30.0
        assert buf.usage == 30.0
        assert oracle.withdraw(buf, 10.0) == 10.0
        assert buf.usage == 20.0

    def test_deposit_clamped_at_capacity(self):
        buf = StagingBuffer(100.0, usage=90.0)
        assert oracle.deposit(buf, 50.0) == 10.0
        assert buf.free == 0.0

    def test_withdraw_clamped_at_zero(self):
        buf = StagingBuffer(100.0, usage=5.0)
        assert oracle.withdraw(buf, 50.0) == 5.0
        assert buf.usage == 0.0

    def test_fill_fraction(self):
        assert StagingBuffer(200.0, usage=50.0).fill_fraction == 0.25

    def test_negative_amounts_rejected(self):
        buf = StagingBuffer(10.0)
        with pytest.raises(SimulationError):
            oracle.deposit(buf, -1.0)
        with pytest.raises(SimulationError):
            oracle.withdraw(buf, -1.0)

    def test_initial_overflow_rejected(self):
        with pytest.raises(SimulationError):
            StagingBuffer(10.0, usage=11.0)

    def test_reset(self):
        buf = StagingBuffer(10.0, usage=5.0)
        buf.reset()
        assert buf.usage == 0.0
        with pytest.raises(SimulationError):
            buf.reset(usage=20.0)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.floats(0, 50)), max_size=30))
    def test_invariants_property(self, ops):
        """Property: usage always stays in [0, capacity]; deposits+withdrawals
        conserve bytes."""
        buf = StagingBuffer(100.0)
        balance = 0.0
        for is_deposit, amount in ops:
            moved = oracle.deposit(buf, amount) if is_deposit else oracle.withdraw(buf, amount)
            balance += moved if is_deposit else -moved
            assert 0.0 <= buf.usage <= buf.capacity
        assert buf.usage == pytest.approx(balance)


class TestMultiplicativeNoise:
    def test_zero_sigma_is_constant_one(self):
        noise = MultiplicativeNoise(0.0)
        assert all(noise.step() == 1.0 for _ in range(5))

    def test_stays_positive(self):
        noise = MultiplicativeNoise(0.2, rng=0)
        values = [noise.step() for _ in range(500)]
        assert min(values) > 0.0

    def test_mean_reverts_to_one(self):
        noise = MultiplicativeNoise(0.05, rho=0.5, rng=0)
        values = np.array([noise.step() for _ in range(3000)])
        assert abs(values.mean() - 1.0) < 0.02

    def test_reset(self):
        noise = MultiplicativeNoise(0.3, rng=0)
        noise.step()
        noise.reset()
        assert noise.value == 1.0

    def test_deterministic_for_seed(self):
        a = MultiplicativeNoise(0.1, rng=42)
        b = MultiplicativeNoise(0.1, rng=42)
        assert [a.step() for _ in range(10)] == [b.step() for _ in range(10)]


class TestBackgroundTrafficTime:
    def test_monotone_time_queries(self):
        bg = BackgroundTraffic(peak=100.0, mean_holding_time=2.0, rng=1)
        levels = [bg.level_at(float(t)) for t in range(50)]
        assert all(0 <= lv <= 100.0 for lv in levels)

    def test_changes_over_long_horizon(self):
        bg = BackgroundTraffic(peak=100.0, mean_holding_time=1.0, rng=1)
        levels = {round(bg.level_at(float(t)), 6) for t in range(100)}
        assert len(levels) > 3
