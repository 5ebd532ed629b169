"""Backfill CLI: ``automdt store ingest BENCH_*.json`` + ``store info``."""

import json

from repro.harness.cli import main
from repro.obs.store import ResultsStore


def _write_bench(path, suite, schema=1, **values):
    report = {"bench": suite, "schema": schema}
    report.update(values)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path


def test_ingest_backfills_bench_reports(tmp_path, capsys):
    db = tmp_path / "store.db"
    a = _write_bench(tmp_path / "BENCH_alpha.json", "alpha", speedup=4.0, ok=True)
    b = _write_bench(tmp_path / "BENCH_beta.json", "beta", overhead=0.01)

    code = main(["store", "ingest", str(a), str(b), "--store", str(db)])
    assert code == 0
    out = capsys.readouterr().out
    assert "alpha" in out and "beta" in out

    store = ResultsStore(db)
    assert store.counts()["runs"] == 2
    alpha = store.latest_bench("alpha")
    assert alpha is not None
    assert alpha.values == {"speedup": 4.0, "ok": 1.0}

    # Re-ingesting the same files is an idempotent no-op.
    assert main(["store", "ingest", str(a), str(b), "--store", str(db)]) == 0
    assert store.counts()["runs"] == 2


def test_ingest_rejects_unknown_schema(tmp_path, capsys):
    db = tmp_path / "store.db"
    bad = _write_bench(tmp_path / "BENCH_future.json", "future", schema=99, x=1.0)
    good = _write_bench(tmp_path / "BENCH_fine.json", "fine", x=1.0)

    code = main(["store", "ingest", str(bad), str(good), "--store", str(db)])
    assert code == 2  # any rejected file fails the command...
    err = capsys.readouterr().err
    assert "BenchSchemaError" in err and "99" in err
    # ...but valid files in the same invocation still land.
    assert ResultsStore(db).counts()["runs"] == 1


def test_ingest_rejects_missing_schema_field(tmp_path, capsys):
    db = tmp_path / "store.db"
    path = tmp_path / "BENCH_naked.json"
    path.write_text('{"bench": "naked", "x": 1.0}\n')
    assert main(["store", "ingest", str(path), "--store", str(db)]) == 2
    assert "BenchSchemaError" in capsys.readouterr().err
    assert ResultsStore(db).counts()["runs"] == 0


def test_store_info_lists_counts_and_recent_runs(tmp_path, capsys):
    db = tmp_path / "store.db"
    a = _write_bench(tmp_path / "BENCH_alpha.json", "alpha", speedup=4.0)
    assert main(["store", "ingest", str(a), "--store", str(db)]) == 0
    capsys.readouterr()

    assert main(["store", "info", "--store", str(db)]) == 0
    out = capsys.readouterr().out
    assert "schema v1" in out
    assert "runs" in out and "bench" in out
    assert "bench/alpha" in out


def test_repo_bench_artifacts_ingest_cleanly(tmp_path):
    """The committed BENCH_*.json artifacts all carry a known schema."""
    from pathlib import Path

    repo_root = Path(__file__).resolve().parents[2]
    artifacts = sorted(repo_root.glob("BENCH_*.json"))
    assert len(artifacts) >= 5
    db = tmp_path / "store.db"
    code = main(["store", "ingest", *map(str, artifacts), "--store", str(db)])
    assert code == 0
    store = ResultsStore(db)
    assert store.counts()["runs"] == len(artifacts)
    suites = {row["scenario"] for row in store.runs(kind="bench")}
    assert {"fleet", "integrity", "parallel"} <= suites
