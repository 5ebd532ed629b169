"""Parallel sweeps reproduce serial numbers; worker obs logs get merged."""

import pytest

from repro import obs
from repro.harness.grid import parse_seeds, run_grid


class TestRunSeededParallel:
    def test_workers_bit_identical_to_serial(self):
        seeds = [0, 1, 2]
        serial = run_grid(["figure1"], seeds, workers=1).aggregates["figure1"]
        parallel = run_grid(["figure1"], seeds, workers=2).aggregates["figure1"]
        assert serial.stats == parallel.stats  # exact float equality, not approx
        assert serial.seeds == parallel.seeds

    def test_worker_logs_merged_into_run_events(self, tmp_path):
        with obs.session(tmp_path, label="test-sweep"):
            run_grid(["figure1"], [0, 1], workers=2)
            # merge_worker_logs runs inside run_grid: per-worker files
            # are already folded into events.jsonl and removed.
            assert not list(tmp_path.glob("events-worker*.jsonl"))
            assert (tmp_path / "events.jsonl").exists()

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError):
            run_grid(["figure1"], [], workers=2)


class TestRunGrid:
    def test_grid_parallel_matches_serial(self):
        serial = run_grid(["figure1"], [0, 1], workers=1)
        parallel = run_grid(["figure1"], [0, 1], workers=2)
        assert serial.ok and parallel.ok
        assert serial.aggregates["figure1"].stats == parallel.aggregates["figure1"].stats

    def test_grid_reports_shape(self):
        result = run_grid(["figure1"], [0, 1], workers=2)
        assert result.experiments == ("figure1",)
        assert result.seeds == (0, 1)
        assert len(result.aggregates["figure1"].runs) == 2
        assert "figure1" in result.table()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_grid(["no-such-experiment"], [0])

    def test_saves_per_cell_results(self, tmp_path):
        run_grid(["figure1"], [0, 1], workers=1, out=tmp_path)
        assert (tmp_path / "figure1_seed0.json").exists()
        assert (tmp_path / "figure1_seed1.json").exists()


class TestParseSeeds:
    def test_range_inclusive(self):
        assert parse_seeds("0-9") == list(range(10))

    def test_comma_list(self):
        assert parse_seeds("0,1,5") == [0, 1, 5]

    def test_mixed(self):
        assert parse_seeds("0-3,8") == [0, 1, 2, 3, 8]

    def test_negative_start(self):
        assert parse_seeds("-2-1") == [-2, -1, 0, 1]

    def test_int_sequence_passthrough(self):
        assert parse_seeds([3, 4]) == [3, 4]

    def test_descending_range_rejected(self):
        with pytest.raises(ValueError):
            parse_seeds("9-0")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_seeds("")
