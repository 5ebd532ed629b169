"""``repro.obs.store`` — the append-only experiment results database.

The SimCash-style substrate under every sweep, soak, bench and report:
one sqlite file (stdlib ``sqlite3``, WAL mode, zero new dependencies)
with ``runs`` / ``metrics`` / ``artifacts`` / ``bench`` tables, fed by
the harness through the :class:`ResultSink` protocol and queried by
``automdt report`` (baseline comparison tables) and ``automdt regress``
(cross-PR bench trajectory gating).

Usage::

    from repro.obs.store import ResultsStore, RunRecord

    store = ResultsStore("automdt.db")
    store.ingest(RunRecord(kind="experiment", scenario="figure3", seed=0,
                           metrics={"automdt_throughput_mbps": 1580.2}))
    print(store.counts())
"""

from repro.obs.store.db import (
    KNOWN_BENCH_SCHEMAS,
    STORE_SCHEMA_VERSION,
    BenchPoint,
    ResultsStore,
    RunRecord,
    flatten_numeric,
)
from repro.obs.store.identity import (
    canonical_json,
    current_git_rev,
    fingerprint_config,
    make_run_id,
)
from repro.obs.store.sink import (
    ResultSink,
    active_store,
    experiment_config,
    record_bench_report,
    record_experiment,
    record_report,
    record_session,
    resolve_store,
    set_default_store,
)
from repro.obs.store.report import sample_stats

__all__ = [
    "BenchPoint",
    "KNOWN_BENCH_SCHEMAS",
    "ResultSink",
    "ResultsStore",
    "RunRecord",
    "STORE_SCHEMA_VERSION",
    "active_store",
    "canonical_json",
    "current_git_rev",
    "experiment_config",
    "fingerprint_config",
    "flatten_numeric",
    "make_run_id",
    "record_bench_report",
    "record_experiment",
    "record_report",
    "record_session",
    "resolve_store",
    "sample_stats",
    "set_default_store",
]
