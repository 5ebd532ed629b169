"""Resumable sweeps: a re-run of a completed grid skips every cell."""

import pytest

from repro.harness.experiments import EXPERIMENTS
from repro.harness.grid import run_grid
from repro.harness.result import ExperimentResult
from repro.obs.store import ResultsStore


def _stats_by_metric(aggregates):
    return {
        (name, metric): stat
        for name, agg in aggregates.items()
        for metric, stat in agg.stats.items()
    }


def test_rerun_skips_completed_cells_and_appends_nothing(tmp_path):
    db = tmp_path / "results.db"

    first = run_grid(["figure1"], [0, 1], store=db)
    assert first.ok
    assert first.skipped == []
    store = ResultsStore(db)
    assert store.counts()["runs"] == 2

    second = run_grid(["figure1"], [0, 1], store=db)
    assert second.ok
    assert sorted(second.skipped) == [("figure1", 0), ("figure1", 1)]
    # No new rows: the whole grid was served from the store.
    assert store.counts()["runs"] == 2

    # Aggregates rebuilt from stored metrics match the fresh run key-by-key.
    assert _stats_by_metric(second.aggregates) == _stats_by_metric(first.aggregates)


def test_partial_grid_only_runs_missing_cells(tmp_path):
    db = tmp_path / "results.db"
    run_grid(["figure1"], [0], store=db)
    store = ResultsStore(db)
    assert store.counts()["runs"] == 1

    widened = run_grid(["figure1"], [0, 1, 2], store=db)
    assert widened.ok
    assert widened.skipped == [("figure1", 0)]
    assert store.counts()["runs"] == 3
    assert len(widened.aggregates["figure1"].runs) == 3


def test_interrupted_grid_keeps_the_cells_it_finished(tmp_path, monkeypatch):
    """A Ctrl-C during a later cell keeps every cell already run, so the
    re-run computes only the cells that are missing."""

    def interrupted(*, fast=True, seed=0):
        raise KeyboardInterrupt

    monkeypatch.setitem(EXPERIMENTS, "later", interrupted)
    db = tmp_path / "results.db"
    with pytest.raises(KeyboardInterrupt):
        run_grid(["figure1", "later"], [0, 1], store=db)
    store = ResultsStore(db)
    rows = store.runs(kind="experiment")
    assert sorted((row["scenario"], row["seed"]) for row in rows) == [
        ("figure1", 0), ("figure1", 1)
    ]

    def finished(*, fast=True, seed=0):
        return ExperimentResult("later", summary={"seed": float(seed)}, tables=[])

    monkeypatch.setitem(EXPERIMENTS, "later", finished)
    rerun = run_grid(["figure1", "later"], [0, 1], store=db)
    assert rerun.ok
    assert sorted(rerun.skipped) == [("figure1", 0), ("figure1", 1)]
    assert store.counts()["runs"] == 4


def test_resume_false_recomputes_everything(tmp_path):
    db = tmp_path / "results.db"
    run_grid(["figure1"], [0], store=db)
    store = ResultsStore(db)
    assert store.counts()["runs"] == 1

    again = run_grid(["figure1"], [0], store=db, resume=False)
    assert again.ok
    assert again.skipped == []
    # The recomputed cell has a fresh wall-start, so it lands as a new row:
    # the store stays append-only even for repeated cells.
    assert store.counts()["runs"] == 2


def test_grid_without_store_still_runs(tmp_path):
    result = run_grid(["figure1"], [0])
    assert result.ok
    assert result.skipped == []
    assert "figure1" in result.aggregates
