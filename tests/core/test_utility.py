"""The utility/reward function (§IV-B)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.utility import DEFAULT_K, UtilityFunction
from repro.utils.errors import ConfigError


class TestConstruction:
    def test_default_k(self):
        assert UtilityFunction().k == DEFAULT_K == 1.02

    def test_rejects_k_below_one(self):
        with pytest.raises(ConfigError):
            UtilityFunction(0.9)

    def test_k_exactly_one_allowed(self):
        # k=1 disables the thread penalty (pure throughput objective).
        u = UtilityFunction(1.0)
        assert u((100, 100, 100), (1, 30, 1)) == pytest.approx(300.0)


class TestValue:
    def test_formula(self):
        u = UtilityFunction(1.02)
        expected = 800 / 1.02**13 + 900 / 1.02**7 + 1000 / 1.02**5
        assert u((800, 900, 1000), (13, 7, 5)) == pytest.approx(expected)

    def test_stage_utility(self):
        u = UtilityFunction(1.02)
        assert u.stage_utility(500, 10) == pytest.approx(500 / 1.02**10)

    def test_wrong_shapes_rejected(self):
        u = UtilityFunction()
        with pytest.raises(ConfigError):
            u((1, 2), (1, 2, 3))

    @settings(max_examples=30, deadline=None)
    @given(
        st.tuples(*([st.floats(min_value=0, max_value=1e5)] * 3)),
        st.tuples(*([st.integers(min_value=1, max_value=100)] * 3)),
    )
    def test_more_threads_never_increase_utility_at_fixed_throughput(self, tputs, threads):
        """Property: with throughput held fixed, adding threads only costs."""
        u = UtilityFunction(1.02)
        more = tuple(n + 1 for n in threads)
        assert u(tputs, more) <= u(tputs, threads) + 1e-9

    def test_higher_throughput_higher_utility(self):
        u = UtilityFunction()
        assert u((1000, 1000, 1000), (5, 5, 5)) > u((500, 500, 500), (5, 5, 5))


class TestMaxReward:
    def test_formula(self):
        u = UtilityFunction(1.02)
        b = 1000.0
        expected = b * (1.02**-13 + 1.02**-7 + 1.02**-5)
        assert u.max_reward(b, (13, 7, 5)) == pytest.approx(expected)

    def test_max_reward_upper_bounds_attainable_utility(self):
        """At the optimum every stage moves exactly b; no feasible operating
        point with the optimal thread counts exceeds R_max."""
        u = UtilityFunction(1.02)
        b, optimal = 1000.0, (13, 7, 5)
        r_max = u.max_reward(b, optimal)
        assert u((b, b, b), optimal) == pytest.approx(r_max)
        assert u((b * 0.9, b, b), optimal) < r_max

    def test_k_controls_aggressiveness(self):
        """Larger k penalizes the same thread counts harder."""
        gentle, harsh = UtilityFunction(1.01), UtilityFunction(1.2)
        tputs, threads = (1000, 1000, 1000), (13, 7, 5)
        assert harsh(tputs, threads) < gentle(tputs, threads)
