"""TimeSeries container: recording, statistics, convergence queries."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils.timeseries import TimeSeries


def make(values, dt=1.0):
    return TimeSeries("t", [(i * dt, v) for i, v in enumerate(values)])


class TestAppend:
    def test_append_and_len(self):
        ts = TimeSeries("x")
        ts.append(0.0, 1.0)
        ts.append(1.0, 2.0)
        assert len(ts) == 2
        assert ts.last == 2.0

    def test_rejects_time_regression(self):
        ts = make([1.0, 2.0])
        with pytest.raises(ValueError):
            ts.append(0.5, 3.0)

    def test_equal_times_allowed(self):
        ts = TimeSeries("x")
        ts.append(1.0, 1.0)
        ts.append(1.0, 2.0)
        assert len(ts) == 2

    def test_iteration_and_indexing(self):
        ts = make([5.0, 6.0])
        assert list(ts) == [(0.0, 5.0), (1.0, 6.0)]
        assert ts[1] == (1.0, 6.0)


class TestStatistics:
    def test_mean_windowed(self):
        ts = make([0.0, 10.0, 20.0, 30.0])
        assert ts.mean() == 15.0
        assert ts.mean(t_start=2.0) == 25.0
        assert ts.mean(t_start=1.0, t_end=2.0) == 15.0

    def test_mean_empty_window_is_nan(self):
        assert np.isnan(make([1.0]).mean(t_start=5.0))

    def test_max_min(self):
        ts = make([3.0, -1.0, 7.0])
        assert ts.max() == 7.0
        assert ts.min() == -1.0

    def test_std(self):
        ts = make([1.0, 1.0, 1.0])
        assert ts.std() == 0.0


class TestTimeToReach:
    def test_first_touch(self):
        ts = make([0, 5, 10, 20, 25])
        assert ts.time_to_reach(20) == 3.0

    def test_sustain_requires_consecutive(self):
        ts = make([20, 0, 20, 20, 20])
        assert ts.time_to_reach(20, sustain=3) == 2.0

    def test_never_reached(self):
        assert make([1, 2, 3]).time_to_reach(10) is None

    def test_sustain_longer_than_series(self):
        assert make([5]).time_to_reach(5, sustain=2) is None


class TestResample:
    def test_zero_order_hold(self):
        ts = TimeSeries("x", [(0.0, 1.0), (2.0, 3.0)])
        rs = ts.resample(1.0)
        assert list(rs.values) == [1.0, 1.0, 3.0]

    def test_empty(self):
        assert len(TimeSeries("x").resample(1.0)) == 0


class TestSerialization:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), max_size=20))
    def test_roundtrip(self, values):
        ts = make(values)
        back = TimeSeries.from_dict(ts.to_dict())
        assert back.name == ts.name
        np.testing.assert_array_equal(back.values, ts.values)
        np.testing.assert_array_equal(back.times, ts.times)
