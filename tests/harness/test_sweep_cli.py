"""``automdt sweep`` and the parallel flags of ``automdt run``."""

import pytest

from repro.harness.cli import main
from repro.harness.experiments import EXPERIMENTS, ExperimentResult
from repro.obs.store import ResultsStore, experiment_config, fingerprint_config


class TestSweepCommand:
    def test_sweep_serial(self, capsys):
        assert main(["sweep", "figure1", "--seeds", "0-1"]) == 0
        out = capsys.readouterr().out
        assert "figure1 over seeds [0, 1]" in out
        assert "sweep over seeds" in out

    def test_sweep_parallel_workers(self, capsys):
        assert main(["sweep", "figure1", "--seeds", "0,1", "--workers", "2"]) == 0
        assert "2 worker(s)" in capsys.readouterr().out

    def test_sweep_multiple_experiments(self, capsys):
        assert main(["sweep", "figure1,parallelism", "--seeds", "0"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out
        assert "parallelism" in out

    def test_sweep_saves_results(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["sweep", "figure1", "--seeds", "0-1", "--out", str(out_dir)]) == 0
        assert (out_dir / "figure1_seed0.json").exists()
        assert (out_dir / "figure1_seed1.json").exists()

    def test_sweep_unknown_experiment(self, capsys):
        assert main(["sweep", "nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_sweep_bad_seeds(self, capsys):
        assert main(["sweep", "figure1", "--seeds", "9-0"]) == 2
        assert "bad --seeds" in capsys.readouterr().err

    def test_sweep_obs_merges_worker_logs(self, tmp_path, capsys):
        obs_dir = tmp_path / "obsrun"
        code = main([
            "sweep", "figure1", "--seeds", "0-1", "--workers", "2",
            "--obs", str(obs_dir),
        ])
        assert code == 0
        assert (obs_dir / "events.jsonl").exists()
        assert not list(obs_dir.glob("events-worker*.jsonl"))


class TestRunSeedsFlag:
    def test_run_with_seed_range(self, capsys):
        assert main(["run", "figure1", "--seeds", "0-1"]) == 0
        assert "figure1 over seeds [0, 1]" in capsys.readouterr().out

    def test_run_with_seed_range_parallel(self, capsys):
        assert main(["run", "figure1", "--seeds", "0,1", "--workers", "2"]) == 0
        assert "figure1 over seeds [0, 1]" in capsys.readouterr().out

    def test_run_with_seeds_saves_each_result(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(["run", "figure1", "--seeds", "0-1", "--out", str(out_dir)]) == 0
        # The layout ``automdt sweep --out`` writes.
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "figure1_seed0.json", "figure1_seed1.json",
        ]

    def test_seeded_adapt_run_is_stored_under_the_adapt_fingerprint(
        self, tmp_path, capsys, monkeypatch
    ):
        """``run --adapt --seeds`` and ``run --adapt --seed`` store one cell
        identity, so a later plain ``sweep`` cannot mistake it for its own."""

        def adaptive(*, fast=True, seed=0, adapt=False):
            return ExperimentResult(
                "adaptive", summary={"adapted": float(adapt)}, tables=[]
            )

        monkeypatch.setitem(EXPERIMENTS, "adaptive", adaptive)
        monkeypatch.setattr("repro.obs.store.sink._default", None)  # --store sets it
        single, seeded = tmp_path / "single.db", tmp_path / "seeded.db"
        assert main(["run", "adaptive", "--adapt", "--store", str(single)]) == 0
        assert main(["run", "adaptive", "--adapt", "--seeds", "0", "--store", str(seeded)]) == 0
        want = fingerprint_config(experiment_config("adaptive", fast=True, adapt=True))
        for db in (single, seeded):
            (row,) = ResultsStore(db).runs(kind="experiment")
            assert row["config_fingerprint"] == want, db.name
            assert ResultsStore(db).run_metrics(row["run_id"]) == {"adapted": 1.0}


def _flaky(*, fast=True, seed=0):
    if seed == 1:
        raise RuntimeError("seed 1 exploded")
    return ExperimentResult("flaky", summary={"speed": float(seed)}, tables=[])


#: A cell's failed supervised transfer and the exit code it sets.
FAILED_TRANSFERS = [
    ({"supervised_completed": False}, 1),
    ({"supervised_completed": False, "supervised_budget_exhausted": True}, 3),
]


class TestExitCodeRule:
    """``run --seeds`` and ``sweep`` fail on the same cells."""

    @pytest.fixture(autouse=True)
    def _no_default_store(self, monkeypatch):
        monkeypatch.setattr("repro.obs.store.sink._default", None)  # --store sets it

    @staticmethod
    def _register_doomed(monkeypatch, summary):
        def doomed(*, fast=True, seed=0):
            return ExperimentResult("doomed", summary=dict(summary), tables=[])

        monkeypatch.setitem(EXPERIMENTS, "doomed", doomed)

    @pytest.mark.parametrize(("summary", "code"), FAILED_TRANSFERS)
    def test_sweep_exits_on_a_failed_transfer(self, summary, code, capsys, monkeypatch):
        self._register_doomed(monkeypatch, summary)
        assert main(["sweep", "doomed", "--seeds", "0"]) == code
        assert "doomed seed 0" in capsys.readouterr().err

    @pytest.mark.parametrize(("summary", "code"), FAILED_TRANSFERS)
    def test_sweep_rerun_of_a_stored_failed_cell_keeps_its_exit_code(
        self, summary, code, tmp_path, capsys, monkeypatch
    ):
        """Stored cells hold 0.0/1.0, not bools, and are classified alike."""
        self._register_doomed(monkeypatch, summary)
        db = tmp_path / "results.db"
        assert main(["sweep", "doomed", "--seeds", "0", "--store", str(db)]) == code
        assert main(["sweep", "doomed", "--seeds", "0", "--store", str(db)]) == code
        # The re-run loaded the cell from the store instead of running it.
        assert len(ResultsStore(db).runs(kind="experiment")) == 1

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_run_seeds_keeps_the_cells_around_a_raising_one(
        self, workers, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setitem(EXPERIMENTS, "flaky", _flaky)
        db = tmp_path / "results.db"
        code = main([
            "run", "flaky", "--seeds", "0,1,2", "--workers", workers,
            "--store", str(db),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "FAILED flaky seed 1: RuntimeError: seed 1 exploded" in captured.err
        # The frame that raised, from a worker as from the serial loop.
        assert 'in _flaky\n    raise RuntimeError("seed 1 exploded")\n' in captured.err
        assert "flaky over seeds [0, 2]" in captured.out
        rows = ResultsStore(db).runs(kind="experiment")
        assert sorted(row["seed"] for row in rows) == [0, 2]
