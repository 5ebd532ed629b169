"""Unit tests for the results store: identity, idempotency, queries."""

import pytest

from repro import obs
from repro.obs.store import (
    KNOWN_BENCH_SCHEMAS,
    ResultsStore,
    RunRecord,
    experiment_config,
    fingerprint_config,
    make_run_id,
    resolve_store,
    set_default_store,
)
from repro.utils.errors import BenchSchemaError, StoreError


@pytest.fixture
def store(tmp_path):
    s = ResultsStore(tmp_path / "results.db")
    yield s
    s.close()


def _record(**overrides):
    base = dict(
        kind="experiment",
        scenario="figure1",
        seed=0,
        config=experiment_config("figure1", fast=True),
        started=100.0,
        finished=101.0,
        metrics={"automdt_throughput_mbps": 1500.0, "nested": {"x": 2.0}},
    )
    base.update(overrides)
    return RunRecord(**base)


def test_schema_created_and_versioned(store, tmp_path):
    assert store.counts() == {"runs": 0, "metrics": 0, "artifacts": 0, "bench": 0}
    version = store.connection.execute("PRAGMA user_version").fetchone()[0]
    assert version == 1

    # A database stamped with a future schema version is refused.
    other = tmp_path / "future.db"
    conn = ResultsStore(other).connection
    conn.execute("PRAGMA user_version=99")
    conn.close()
    with pytest.raises(StoreError, match="schema version 99"):
        ResultsStore(other).connection  # noqa: B018 - property opens the db


def test_double_ingest_is_idempotent(store):
    first = store.ingest(_record())
    second = store.ingest(_record())
    assert first == second
    counts = store.counts()
    assert counts["runs"] == 1
    assert counts["metrics"] == 2  # flat throughput + nested.x, not doubled


def test_run_id_depends_on_each_identity_component():
    base = make_run_id("rev", "fp", 0, 100.0)
    assert base != make_run_id("other", "fp", 0, 100.0)
    assert base != make_run_id("rev", "fp2", 0, 100.0)
    assert base != make_run_id("rev", "fp", 1, 100.0)
    assert base != make_run_id("rev", "fp", None, 100.0)
    assert base != make_run_id("rev", "fp", 0, 200.0)
    assert base == make_run_id("rev", "fp", 0, 100.0)


def test_fingerprint_is_order_insensitive():
    assert fingerprint_config({"a": 1, "b": 2}) == fingerprint_config({"b": 2, "a": 1})
    assert fingerprint_config({"a": 1}) != fingerprint_config({"a": 2})


def test_labelled_metrics_round_trip(store):
    run_id = store.ingest(
        _record(
            labelled_metrics=[
                ("tenant.goodput", 10.0, {"tenant": "t0"}),
                ("tenant.goodput", 20.0, {"tenant": "t1"}),
            ]
        )
    )
    assert store.run_metrics(run_id) == {
        "automdt_throughput_mbps": 1500.0,
        "nested.x": 2.0,
    }
    labelled = store.run_metrics(run_id, labelled=True)
    assert len(labelled) == 3  # dict keyed by name keeps last labelled row


def test_completed_run_keyed_on_cell_and_rev(store):
    fingerprint = fingerprint_config(experiment_config("figure1", fast=True))
    store.ingest(_record(git_rev="revA"))
    assert (
        store.completed_run("experiment", "figure1", 0, fingerprint, git_rev="revA")
        is not None
    )
    # Different seed / fingerprint / revision: not completed.
    assert store.completed_run("experiment", "figure1", 1, fingerprint, git_rev="revA") is None
    assert store.completed_run("experiment", "figure1", 0, "other", git_rev="revA") is None
    assert store.completed_run("experiment", "figure1", 0, fingerprint, git_rev="revB") is None
    # Unfinished runs don't count as completed.
    store.ingest(_record(seed=2, finished=None, git_rev="revA"))
    assert store.completed_run("experiment", "figure1", 2, fingerprint, git_rev="revA") is None


def test_bench_ingest_validates_schema(store):
    with pytest.raises(BenchSchemaError, match="no integer 'schema'"):
        store.ingest_bench("kernels", {"bench": "kernels"})
    with pytest.raises(BenchSchemaError, match="schema version 99"):
        store.ingest_bench("kernels", {"bench": "kernels", "schema": 99})
    with pytest.raises(StoreError, match="declares suite"):
        store.ingest_bench("other", {"bench": "kernels", "schema": 1})
    assert 1 in KNOWN_BENCH_SCHEMAS


def test_bench_trajectory_and_latest(store):
    store.ingest_bench(
        "kernels", {"bench": "kernels", "schema": 1, "speedup": 4.0},
        git_rev="revA", started=100.0,
    )
    store.ingest_bench(
        "kernels", {"bench": "kernels", "schema": 1, "speedup": 5.0},
        git_rev="revB", started=200.0,
    )
    point = store.latest_bench("kernels")
    assert point is not None
    assert point.values == {"speedup": 5.0}
    assert point.git_rev == "revB"
    older = store.latest_bench("kernels", before=point.run_id)
    assert older is not None and older.values == {"speedup": 4.0}
    assert store.bench_trajectory("kernels", "speedup") == [
        (100.0, "revA", 4.0),
        (200.0, "revB", 5.0),
    ]


def test_bench_file_reingest_is_idempotent(store, tmp_path):
    path = tmp_path / "BENCH_kernels.json"
    path.write_text('{"bench": "kernels", "schema": 1, "speedup": 4.0}')
    first = store.ingest_bench("kernels", {"bench": "kernels", "schema": 1, "speedup": 4.0},
                               path=path)
    second = store.ingest_bench("kernels", {"bench": "kernels", "schema": 1, "speedup": 4.0},
                                path=path)
    assert first == second
    assert store.counts()["runs"] == 1


def test_resolve_store_precedence(store, tmp_path, monkeypatch):
    monkeypatch.delenv("AUTOMDT_STORE", raising=False)
    assert resolve_store(None) is None
    assert resolve_store(store) is store
    try:
        set_default_store(store)
        assert resolve_store(None) is store
    finally:
        set_default_store(None)
    env_db = tmp_path / "env.db"
    monkeypatch.setenv("AUTOMDT_STORE", str(env_db))
    resolved = resolve_store(None)
    assert resolved is not None and resolved.path == env_db


def test_obs_session_close_ingests_registry(store, tmp_path, monkeypatch):
    monkeypatch.delenv("AUTOMDT_STORE", raising=False)
    try:
        set_default_store(store)
        with obs.session(tmp_path / "run", label="unit") as sess:
            sess.count("transfers_total", 3)
            sess.observe("latency", 0.5)
    finally:
        set_default_store(None)
    runs = store.runs(kind="obs")
    assert len(runs) == 1
    metrics = store.run_metrics(runs[0]["run_id"])
    assert metrics["transfers_total"] == 3.0
    assert metrics["latency.count"] == 1.0
    # An empty session leaves no run row behind.
    try:
        set_default_store(store)
        with obs.session(tmp_path / "run2", label="empty"):
            pass
    finally:
        set_default_store(None)
    assert len(store.runs(kind="obs")) == 1
