"""``automdt regress``: cross-PR bench gating against the stored trajectory."""

import json

import pytest

from repro.harness.cli import main
from repro.obs.store import ResultsStore
from repro.obs.store import regress
from repro.obs.store.regress import BOOL, HIGHER, INFO, LOWER, classify_key, run_regress
from repro.utils.errors import BenchSchemaError


def _baseline(db, suite="kernels", **values):
    store = ResultsStore(db)
    report = {"bench": suite, "schema": 1}
    report.update(values)
    store.ingest_bench(suite, report, git_rev="baseline", started=100.0)
    return store


def _current(tmp_path, suite="kernels", **values):
    report = {"bench": suite, "schema": 1}
    report.update(values)
    path = tmp_path / f"BENCH_{suite}.json"
    path.write_text(json.dumps(report) + "\n")
    return path


def test_classify_key_directions():
    assert classify_key("crc32c.speedup") == HIGHER
    assert classify_key("cache_speedup") == HIGHER
    assert classify_key("overhead") == LOWER
    assert classify_key("verify.overhead_fraction") == LOWER
    assert classify_key("ok") == BOOL
    assert classify_key("determinism.identical") == BOOL
    assert classify_key("fairness.within_bound") == BOOL
    assert classify_key("best_wall_s") == INFO
    assert classify_key("verify_mb_per_s") == INFO


def test_small_drift_within_threshold_passes(tmp_path):
    db = tmp_path / "store.db"
    _baseline(db, speedup=4.0, ok=True)
    path = _current(tmp_path, speedup=3.9, ok=True)
    assert main(["regress", str(path), "--store", str(db)]) == 0


def test_large_regression_fails_with_nonzero_exit(tmp_path, capsys):
    db = tmp_path / "store.db"
    _baseline(db, speedup=4.0, ok=True)
    path = _current(tmp_path, speedup=2.0, ok=True)
    assert main(["regress", str(path), "--store", str(db)]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out and "speedup" in out


def test_lower_better_keys_gate_increases(tmp_path):
    db = tmp_path / "store.db"
    _baseline(db, overhead=0.010)
    worse = _current(tmp_path, overhead=0.020)
    assert main(["regress", str(worse), "--store", str(db), "--no-ingest"]) == 1
    better = _current(tmp_path, overhead=0.005)
    assert main(["regress", str(better), "--store", str(db), "--no-ingest"]) == 0


def test_boolean_gate_must_stay_true(tmp_path):
    db = tmp_path / "store.db"
    _baseline(db, ok=True)
    path = _current(tmp_path, ok=False)
    assert main(["regress", str(path), "--store", str(db)]) == 1


def test_informational_keys_do_not_gate_by_default(tmp_path):
    db = tmp_path / "store.db"
    _baseline(db, best_wall_s=1.0)
    path = _current(tmp_path, best_wall_s=3.0)  # 3x slower wall clock
    assert main(["regress", str(path), "--store", str(db), "--no-ingest"]) == 0
    # ...unless absolute gating is requested explicitly.
    assert main(["regress", str(path), "--store", str(db), "--no-ingest",
                 "--gate-absolute"]) == 1


def test_threshold_is_configurable(tmp_path):
    db = tmp_path / "store.db"
    _baseline(db, speedup=4.0)
    path = _current(tmp_path, speedup=3.9)  # -2.5%
    assert main(["regress", str(path), "--store", str(db), "--no-ingest",
                 "--threshold", "0.01"]) == 1


def test_no_baseline_seeds_the_trajectory(tmp_path, capsys):
    db = tmp_path / "store.db"
    path = _current(tmp_path, speedup=4.0)
    assert main(["regress", str(path), "--store", str(db)]) == 0
    assert "no stored baseline" in capsys.readouterr().out
    # The ingest seeded the trajectory: the next comparison has a baseline.
    path2 = _current(tmp_path, speedup=2.0)
    assert main(["regress", str(path2), "--store", str(db)]) == 1


def test_regress_appends_trajectory_unless_no_ingest(tmp_path):
    db = tmp_path / "store.db"
    store = _baseline(db, speedup=4.0)
    path = _current(tmp_path, speedup=4.2)
    result = run_regress(store, [path], ingest=False)
    assert result["ok"]
    assert len(store.bench_trajectory("kernels", "speedup")) == 1
    result = run_regress(store, [path], ingest=True)
    assert result["ok"]
    trajectory = store.bench_trajectory("kernels", "speedup")
    assert [value for _, _, value in trajectory] == [4.0, 4.2]


def test_skipped_legs_are_informational(tmp_path, capsys):
    """``status: skipped_*`` legs never gate, whatever their key suffixes.

    A single-core runner records the sweep leg as skipped; gated-looking
    keys under that leg (a stale ``speedup``, an ``ok`` bool) must be
    demoted to informational instead of compared against the trajectory.
    """
    db = tmp_path / "store.db"
    _baseline(db, sweep={"speedup": 4.0, "ok": True, "cpu_count": 8})
    path = _current(
        tmp_path,
        sweep={
            "status": "skipped_single_core",
            "speedup": 0.8,
            "ok": False,
            "cpu_count": 1,
        },
    )
    assert main(["regress", str(path), "--store", str(db), "--no-ingest"]) == 0
    assert "sweep skipped" in capsys.readouterr().out
    # The same values without the skip marker regress as usual.
    bad = _current(tmp_path, sweep={"speedup": 0.8, "ok": False, "cpu_count": 1})
    assert main(["regress", str(bad), "--store", str(db), "--no-ingest"]) == 1


def test_dropped_gated_key_regresses(tmp_path, capsys):
    """A report cannot pass by losing a gated key.

    Exempt: keys under a ``skipped_*`` leg, and reports whose ``quick``
    flag differs from the baseline's (quick runs may carry fewer arms).
    """
    db = tmp_path / "store.db"
    _baseline(db, quick=False, arm={"speedup": 4.0, "bit_identical": True, "wall_s": 1.0})
    dropped = _current(tmp_path, quick=False, arm={"wall_s": 1.0})
    assert main(["regress", str(dropped), "--store", str(db), "--no-ingest"]) == 1
    out = capsys.readouterr().out
    assert "arm.speedup 4 → missing" in out and "arm.bit_identical 1 → missing" in out
    # Informational keys may come and go.
    no_wall = _current(tmp_path, quick=False, arm={"speedup": 4.0, "bit_identical": True})
    assert main(["regress", str(no_wall), "--store", str(db), "--no-ingest"]) == 0
    skipped = _current(tmp_path, quick=False, arm={"status": "skipped_single_core"})
    assert main(["regress", str(skipped), "--store", str(db), "--no-ingest"]) == 0
    quick = _current(tmp_path, quick=True, arm={"wall_s": 1.0})
    assert main(["regress", str(quick), "--store", str(db), "--no-ingest"]) == 0


RETIRED = [{"key": "arm.speedup", "reason": "the engine it measured was deleted"}]


def test_retired_missing_key_is_exempt_and_printed(tmp_path, capsys):
    db = tmp_path / "store.db"
    _baseline(db, quick=False, arm={"speedup": 4.0, "bit_identical": True})
    path = _current(tmp_path, quick=False, arm={"bit_identical": True}, retired=RETIRED)
    assert main(["regress", str(path), "--store", str(db), "--no-ingest"]) == 0
    out = capsys.readouterr().out
    assert "retired arm.speedup — the engine it measured was deleted" in out
    assert "missing" not in out


def test_unretired_dropped_key_still_regresses(tmp_path, capsys):
    db = tmp_path / "store.db"
    _baseline(db, quick=False, arm={"speedup": 4.0, "bit_identical": True})
    path = _current(tmp_path, quick=False, arm={}, retired=RETIRED)
    assert main(["regress", str(path), "--store", str(db), "--no-ingest"]) == 1
    out = capsys.readouterr().out
    assert "arm.bit_identical 1 → missing" in out
    assert "arm.speedup 4 → missing" not in out


def test_retired_key_still_present_is_compared(tmp_path, capsys):
    db = tmp_path / "store.db"
    _baseline(db, quick=False, arm={"speedup": 4.0})
    path = _current(tmp_path, quick=False, arm={"speedup": 1.0}, retired=RETIRED)
    assert main(["regress", str(path), "--store", str(db), "--no-ingest"]) == 1
    assert "REGRESSION kernels:arm.speedup 4 → 1" in capsys.readouterr().out


def test_retired_entry_needs_a_reason(tmp_path, capsys):
    db = tmp_path / "store.db"
    _baseline(db, arm={"speedup": 4.0})
    path = _current(tmp_path, arm={}, retired=[{"key": "arm.speedup"}])
    assert main(["regress", str(path), "--store", str(db), "--no-ingest"]) == 2
    assert "BenchSchemaError" in capsys.readouterr().err


def _two_suites(tmp_path):
    """A store with ``kernels`` and ``dataplane`` baselines, and a current
    report of ``kernels`` alone."""
    db = tmp_path / "store.db"
    _baseline(db, speedup=4.0)
    _baseline(db, suite="dataplane", speedup=2.0, ok=True)
    return db, _current(tmp_path, speedup=4.0)


def test_suite_without_a_current_report_regresses(tmp_path, capsys, monkeypatch):
    monkeypatch.delitem(regress.REMOVED_SUITES, "dataplane", raising=False)
    db, path = _two_suites(tmp_path)
    assert main(["regress", str(path), "--store", str(db), "--no-ingest"]) == 1
    out = capsys.readouterr().out
    assert "kernels: OK" in out
    assert "dataplane: MISSING — baseline baseline has a report" in out
    # Naming only the suite at hand compares just that one.
    assert main(["regress", str(path), "--store", str(db), "--no-ingest",
                 "--suite", "kernels"]) == 0


def test_declared_suite_removal_passes_and_is_printed(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(regress.REMOVED_SUITES, "dataplane", "its code was deleted")
    db, path = _two_suites(tmp_path)
    assert main(["regress", str(path), "--store", str(db), "--no-ingest"]) == 0
    out = capsys.readouterr().out
    assert "dataplane: removed — its code was deleted" in out
    assert "MISSING" not in out
    result = run_regress(ResultsStore(db), [path], ingest=False)
    assert result["ok"] and result["suites"]["dataplane"]["status"] == "removed"


def test_skipped_prefixes_walks_nested_legs():
    from repro.obs.store.regress import skipped_prefixes

    report = {
        "bench": "parallel",
        "schema": 1,
        "sweep": {"status": "skipped_single_core"},
        "nested": {"inner": {"status": "skipped_no_gpu", "x": 1.0}},
        "fine": {"status": "ok", "speedup": 2.0},
    }
    assert skipped_prefixes(report) == ("sweep", "nested.inner")


def test_regress_rejects_unknown_schema(tmp_path, capsys):
    db = tmp_path / "store.db"
    report = {"bench": "kernels", "schema": 7, "speedup": 4.0}
    path = tmp_path / "BENCH_kernels.json"
    path.write_text(json.dumps(report))
    assert main(["regress", str(path), "--store", str(db)]) == 2
    assert "BenchSchemaError" in capsys.readouterr().err
    with pytest.raises(BenchSchemaError):
        run_regress(ResultsStore(db), [path])


def test_regress_json_output(tmp_path, capsys):
    db = tmp_path / "store.db"
    _baseline(db, speedup=4.0)
    path = _current(tmp_path, speedup=3.9)
    assert main(["regress", str(path), "--store", str(db), "--json",
                 "--no-ingest"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["suites"]["kernels"]["status"] == "ok"
    findings = payload["suites"]["kernels"]["findings"]
    assert any(f["key"] == "speedup" and not f["regressed"] for f in findings)


def test_committed_parallel_bench_gates_its_population_arm(tmp_path, capsys):
    """``fleet_steps.population`` of the committed ``BENCH_parallel.json``
    is gated: a population-regime speedup far below the committed one
    fails ``automdt regress``."""
    from pathlib import Path

    committed = Path(__file__).resolve().parents[2] / "BENCH_parallel.json"
    report = json.loads(committed.read_text())
    population = report["fleet_steps"]["population"]
    assert population["outputs_identical"] and population["meets_floor"]
    assert classify_key("fleet_steps.population.speedup") == HIGHER
    assert classify_key("fleet_steps.population.outputs_identical") == BOOL

    db = tmp_path / "store.db"
    ResultsStore(db).ingest_bench("parallel", report, git_rev="baseline", started=100.0)
    population["speedup"] = 0.11
    slower = tmp_path / "BENCH_parallel.json"
    slower.write_text(json.dumps(report) + "\n")
    assert main(["regress", str(slower), "--store", str(db), "--no-ingest"]) == 1
    assert "fleet_steps.population.speedup" in capsys.readouterr().out
