"""Multi-seed aggregation: one experiment over several seeds via ``run_grid``."""

import numpy as np
import pytest

from repro.harness.experiments import EXPERIMENTS
from repro.harness.grid import AggregateResult, run_grid
from repro.harness.result import ExperimentResult
from repro.obs.store import flatten_numeric


def fake_experiment(*, seed: int = 0, fast: bool = True) -> ExperimentResult:
    return ExperimentResult(
        name="fake",
        summary={
            "speed": 100.0 + seed,
            "nested": {"a": float(seed), "b": 2.0},
            "triple": (1, 2, seed),
            "flag": seed % 2 == 0,
            "label": "not-a-number",
            "sometimes": 5.0 if seed > 0 else None,
        },
    )


@pytest.fixture
def run_fake(monkeypatch):
    """Aggregate the registered fake experiment over ``seeds``."""
    monkeypatch.setitem(EXPERIMENTS, "fake", fake_experiment)

    def run(seeds) -> AggregateResult:
        return run_grid(["fake"], seeds).aggregates["fake"]

    return run


class TestFlattenSummary:
    def test_scalars_and_nesting(self):
        flat = flatten_numeric({"a": 1, "b": {"c": 2.5}, "d": (3, 4)})
        assert flat == {"a": 1.0, "b.c": 2.5, "d[0]": 3.0, "d[1]": 4.0}

    def test_skips_non_numeric(self):
        flat = flatten_numeric({"s": "text", "n": None, "x": 1})
        assert flat == {"x": 1.0}

    def test_bools_as_floats(self):
        assert flatten_numeric({"ok": True}) == {"ok": 1.0}


class TestRunSeeded:
    def test_aggregates_mean_std(self, run_fake):
        agg = run_fake([0, 1, 2])
        assert agg.mean("speed") == pytest.approx(101.0)
        assert agg.stats["speed"]["std"] == pytest.approx(np.std([100, 101, 102]))
        assert agg.stats["speed"]["n"] == 3

    def test_nested_keys(self, run_fake):
        agg = run_fake([0, 1])
        assert "nested.a" in agg.stats
        assert "triple[2]" in agg.stats

    def test_partial_metrics_counted(self, run_fake):
        agg = run_fake([0, 1, 2])
        # 'sometimes' is None for seed 0 → n == 2.
        assert agg.stats["sometimes"]["n"] == 2

    def test_requires_seeds(self, run_fake):
        with pytest.raises(ValueError):
            run_fake([])

    def test_table_renders(self, run_fake):
        agg = run_fake([0, 1])
        text = agg.table()
        assert "speed" in text and "mean" in text

    def test_runs_preserved(self, run_fake):
        agg = run_fake([3, 4])
        assert isinstance(agg, AggregateResult)
        assert len(agg.runs) == 2
        assert agg.seeds == (3, 4)

    def test_on_real_light_experiment(self):
        agg = run_grid(["k_sweep"], [0, 1]).aggregates["k_sweep"]
        assert agg.mean("best_k") == pytest.approx(1.02)
