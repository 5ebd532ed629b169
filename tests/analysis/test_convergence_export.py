"""Convergence detection and exporters."""

import numpy as np
import pytest

from repro.analysis.convergence import rolling_convergence_episode, rolling_mean
from repro.analysis.export import export_experiment, series_to_csv, summary_to_markdown
from repro.harness.result import ExperimentResult
from repro.utils.timeseries import TimeSeries


class TestRollingMean:
    def test_window_one_is_identity(self):
        np.testing.assert_array_equal(rolling_mean([1, 2, 3], 1), [1, 2, 3])

    def test_window_average(self):
        np.testing.assert_allclose(rolling_mean([0, 2, 4, 6], 2), [1, 3, 5])

    def test_short_input_empty(self):
        assert rolling_mean([1.0], 5).size == 0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            rolling_mean([1.0], 0)


class TestRollingConvergence:
    def test_detects_crossing(self):
        rewards = [0.0] * 50 + [10.0] * 100
        idx = rolling_convergence_episode(rewards, target=9.5, window=10)
        # Window must lie fully inside the 10.0 region: episodes 50..59.
        assert idx == 59

    def test_never_converges(self):
        assert rolling_convergence_episode([1.0] * 200, target=5.0, window=10) is None

    def test_too_short(self):
        assert rolling_convergence_episode([10.0] * 5, target=1.0, window=100) is None


class TestExport:
    def make_result(self):
        return ExperimentResult(
            name="demo",
            summary={"speed": 1.5, "tool": "AutoMDT"},
            tables=["| x |"],
            series={
                "a": TimeSeries("a", [(0.0, 1.0), (2.0, 3.0)]),
                "b": TimeSeries("b", [(1.0, 5.0)]),
            },
            notes=["hello"],
        )

    def test_series_to_csv(self, tmp_path):
        path = series_to_csv(self.make_result().series, tmp_path / "out.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time,a,b"
        assert len(lines) == 4  # header + times {0, 1, 2}
        # b has no sample at t=0 -> empty cell.
        assert lines[1].endswith(",")

    def test_series_to_csv_empty(self, tmp_path):
        path = series_to_csv({}, tmp_path / "empty.csv")
        assert path.read_text() == "time\n"

    def test_summary_to_markdown(self):
        md = summary_to_markdown(self.make_result())
        assert "## demo" in md
        assert "| speed | 1.5 |" in md
        assert "> hello" in md

    def test_export_experiment_writes_all(self, tmp_path):
        paths = export_experiment(self.make_result(), tmp_path)
        suffixes = {p.suffix for p in paths}
        assert suffixes == {".json", ".csv", ".md"}
        for p in paths:
            assert p.exists()
