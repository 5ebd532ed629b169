"""Append-only experiment results store on stdlib ``sqlite3`` (WAL mode).

One database file holds every result the harness produces — experiment
grid cells, chaos/fleet soaks, fleet reports, bench trajectories, and
closed observability sessions — in four tables:

* ``runs`` — one row per execution: ``run_id`` (derived, see
  :mod:`repro.obs.store.identity`), kind, scenario, git revision, seed,
  config fingerprint, wall start/finish;
* ``metrics`` — flattened numeric results, optionally labelled
  (``{"tenant": "tenant0"}``-style JSON labels);
* ``artifacts`` — files a run left behind, content-addressed by sha256;
* ``bench`` — the ``BENCH_*.json`` trajectory: (suite, key, value,
  schema_version) per ingested report.

The store is **append-only**: nothing here updates or deletes rows.
Re-ingesting a run with the same identity is an idempotent no-op (the
``INSERT OR IGNORE`` on the primary key short-circuits the whole
transaction), and every ingest is a single transaction, so a crash
mid-ingest leaves the previously committed state intact and the partial
run absent.  WAL mode lets parallel sweep workers append concurrently
from separate processes; connections are re-opened per process so a
forked worker never shares the parent's handle.
"""

from __future__ import annotations

import hashlib
import os
import sqlite3
import time
from collections.abc import Mapping, Sequence
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.store.identity import (
    canonical_json,
    current_git_rev,
    fingerprint_config,
    make_run_id,
)
from repro.utils.errors import BenchSchemaError, StoreError

__all__ = [
    "BenchPoint",
    "KNOWN_BENCH_SCHEMAS",
    "ResultsStore",
    "RunRecord",
    "STORE_SCHEMA_VERSION",
    "flatten_numeric",
]

#: Version stamped into ``PRAGMA user_version`` when a database is created.
STORE_SCHEMA_VERSION = 1

#: ``schema`` values of ``BENCH_*.json`` reports this code can ingest.
KNOWN_BENCH_SCHEMAS = frozenset({1})

#: Keys of a bench report that are identity/provenance, not measurements.
_BENCH_META_KEYS = frozenset({"bench", "schema", "out"})

_DDL = (
    """
    CREATE TABLE IF NOT EXISTS runs (
        run_id             TEXT PRIMARY KEY,
        kind               TEXT NOT NULL,
        scenario           TEXT NOT NULL,
        git_rev            TEXT NOT NULL,
        seed               INTEGER,
        config_fingerprint TEXT NOT NULL,
        config_json        TEXT NOT NULL DEFAULT '{}',
        started            REAL,
        finished           REAL,
        label              TEXT NOT NULL DEFAULT ''
    )
    """,
    """
    CREATE INDEX IF NOT EXISTS idx_runs_cell
        ON runs (kind, scenario, seed, config_fingerprint, git_rev)
    """,
    """
    CREATE TABLE IF NOT EXISTS metrics (
        run_id TEXT NOT NULL REFERENCES runs (run_id),
        name   TEXT NOT NULL,
        value  REAL NOT NULL,
        labels TEXT NOT NULL DEFAULT '{}'
    )
    """,
    "CREATE INDEX IF NOT EXISTS idx_metrics_run ON metrics (run_id)",
    "CREATE INDEX IF NOT EXISTS idx_metrics_name ON metrics (name)",
    """
    CREATE TABLE IF NOT EXISTS artifacts (
        run_id TEXT NOT NULL REFERENCES runs (run_id),
        path   TEXT NOT NULL,
        sha256 TEXT NOT NULL
    )
    """,
    "CREATE INDEX IF NOT EXISTS idx_artifacts_run ON artifacts (run_id)",
    """
    CREATE TABLE IF NOT EXISTS bench (
        run_id         TEXT NOT NULL REFERENCES runs (run_id),
        suite          TEXT NOT NULL,
        key            TEXT NOT NULL,
        value          REAL NOT NULL,
        schema_version INTEGER NOT NULL
    )
    """,
    "CREATE INDEX IF NOT EXISTS idx_bench_suite ON bench (suite, key)",
)


def _flatten(prefix: str, value, out: dict[str, float]) -> None:
    if isinstance(value, bool):
        out[prefix] = float(value)
    elif isinstance(value, (int, float)):
        v = float(value)
        if v == v and abs(v) != float("inf"):  # finite
            out[prefix] = v
    elif isinstance(value, Mapping):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}", sub, out)
    elif isinstance(value, (tuple, list)) and all(
        isinstance(v, (int, float, bool)) for v in value
    ):
        for i, sub in enumerate(value):
            _flatten(f"{prefix}[{i}]", sub, out)
    # strings, None, nested heterogenous lists: not metrics


def flatten_numeric(mapping: Mapping) -> dict[str, float]:
    """Dotted-key flattening of the numeric parts of a nested mapping.

    Bools become 0/1, finite numbers pass through, everything else is
    skipped.  Ingest stores metrics through it and the harness's
    multi-seed aggregates read summaries through it; it lives here so the
    store does not import the harness it feeds.
    """
    out: dict[str, float] = {}
    for key, value in mapping.items():
        _flatten(str(key), value, out)
    return out


def _sha256_file(path: str | Path) -> str:
    """Content hash of an artifact file; empty string if unreadable."""
    try:
        digest = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        return digest.hexdigest()
    except OSError:
        return ""


@dataclass(frozen=True)
class RunRecord:
    """Everything one run contributes to the store, pre-ingest.

    ``metrics`` may be arbitrarily nested (it is flattened on ingest);
    ``labelled_metrics`` rows are ``(name, value, labels)`` triples for
    per-tenant / per-case breakdowns.  ``git_rev`` and ``started`` default
    to the current revision and wall clock at ingest time.
    """

    kind: str
    scenario: str
    seed: int | None = None
    config: Mapping | None = None
    git_rev: str | None = None
    started: float | None = None
    finished: float | None = None
    metrics: Mapping = field(default_factory=dict)
    labelled_metrics: Sequence[tuple[str, float, Mapping[str, str]]] = ()
    artifacts: Sequence[str | Path] = ()
    label: str = ""


@dataclass(frozen=True)
class BenchPoint:
    """One ingested bench report: identity plus its flat key→value map."""

    run_id: str
    suite: str
    git_rev: str
    started: float
    schema_version: int
    values: Mapping[str, float]


class ResultsStore:
    """The append-only sqlite results database (one file, WAL mode)."""

    def __init__(self, path: str | Path, *, timeout: float = 30.0) -> None:
        self.path = Path(path)
        self._timeout = timeout
        self._connection: sqlite3.Connection | None = None
        self._pid: int | None = None

    # ------------------------------------------------------------ connection
    @property
    def connection(self) -> sqlite3.Connection:
        """The current process's connection (re-opened after a fork)."""
        if self._connection is None or self._pid != os.getpid():
            self._connection = self._open()
            self._pid = os.getpid()
        return self._connection

    def _open(self) -> sqlite3.Connection:
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(
            str(self.path), timeout=self._timeout, isolation_level=None
        )
        conn.row_factory = sqlite3.Row
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(f"PRAGMA busy_timeout={int(self._timeout * 1000)}")
        version = conn.execute("PRAGMA user_version").fetchone()[0]
        if version == 0:
            for statement in _DDL:
                conn.execute(statement)
            conn.execute(f"PRAGMA user_version={STORE_SCHEMA_VERSION}")
        elif version != STORE_SCHEMA_VERSION:
            conn.close()
            raise StoreError(
                f"results store {self.path} has schema version {version}; "
                f"this code reads version {STORE_SCHEMA_VERSION}"
            )
        return conn

    def close(self) -> None:
        """Close this process's connection (the file remains valid)."""
        if self._connection is not None and self._pid == os.getpid():
            self._connection.close()
        self._connection = None
        self._pid = None

    @contextmanager
    def transaction(self):
        """``BEGIN IMMEDIATE`` … ``COMMIT``; rollback on any exception."""
        conn = self.connection
        conn.execute("BEGIN IMMEDIATE")
        try:
            yield conn
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        else:
            conn.execute("COMMIT")

    # ---------------------------------------------------------------- ingest
    def ingest(self, record: RunRecord) -> str:
        """Append one run (idempotent on the derived run id).

        Returns the run id whether the run was inserted or already
        present; metrics/artifacts are only written for a fresh insert, so
        ingesting the same execution twice cannot duplicate rows.
        """
        git_rev = record.git_rev or current_git_rev()
        fingerprint = fingerprint_config(record.config or {})
        started = time.time() if record.started is None else float(record.started)
        run_id = make_run_id(git_rev, fingerprint, record.seed, started)
        metric_rows = [
            (run_id, name, value, "{}")
            for name, value in flatten_numeric(record.metrics).items()
        ]
        metric_rows.extend(
            (run_id, name, float(value), canonical_json(dict(labels)))
            for name, value, labels in record.labelled_metrics
        )
        artifact_rows = [
            (run_id, str(path), _sha256_file(path)) for path in record.artifacts
        ]
        with self.transaction() as conn:
            cur = conn.execute(
                "INSERT OR IGNORE INTO runs VALUES (?,?,?,?,?,?,?,?,?,?)",
                (
                    run_id, record.kind, record.scenario, git_rev,
                    record.seed, fingerprint, canonical_json(record.config or {}),
                    started, record.finished, record.label,
                ),
            )
            if cur.rowcount == 0:  # double-ingest of the same run: no-op
                return run_id
            conn.executemany("INSERT INTO metrics VALUES (?,?,?,?)", metric_rows)
            conn.executemany("INSERT INTO artifacts VALUES (?,?,?)", artifact_rows)
        return run_id

    def ingest_bench(
        self,
        suite: str,
        report: Mapping,
        *,
        path: str | Path | None = None,
        git_rev: str | None = None,
        started: float | None = None,
    ) -> str:
        """Append one ``BENCH_*.json`` report to the suite's trajectory.

        Validates the report's ``schema`` field against
        :data:`KNOWN_BENCH_SCHEMAS` and raises :class:`BenchSchemaError`
        for missing/unknown versions.  When ingesting from a file,
        ``started`` defaults to the file's mtime and the content hash is
        folded into the fingerprint, so re-ingesting the same artifact is
        idempotent.
        """
        schema = report.get("schema")
        if not isinstance(schema, int) or isinstance(schema, bool):
            raise BenchSchemaError(
                f"bench report for suite {suite!r} has no integer 'schema' "
                f"field (got {schema!r}); cannot ingest"
            )
        if schema not in KNOWN_BENCH_SCHEMAS:
            raise BenchSchemaError(
                f"bench report for suite {suite!r} has schema version "
                f"{schema}; this code ingests {sorted(KNOWN_BENCH_SCHEMAS)}"
            )
        declared = report.get("bench")
        if declared is not None and declared != suite:
            raise StoreError(
                f"bench report declares suite {declared!r}, ingest asked "
                f"for {suite!r}"
            )
        content_sha = hashlib.sha256(canonical_json(report).encode()).hexdigest()
        if started is None:
            if path is not None and Path(path).exists():
                started = Path(path).stat().st_mtime
            else:
                started = time.time()
        git_rev = git_rev or current_git_rev()
        config = {"suite": suite, "schema": schema, "content_sha": content_sha}
        fingerprint = fingerprint_config(config)
        run_id = make_run_id(git_rev, fingerprint, None, started)
        flat = {
            key: value
            for key, value in flatten_numeric(report).items()
            if key.split(".", 1)[0] not in _BENCH_META_KEYS
        }
        with self.transaction() as conn:
            cur = conn.execute(
                "INSERT OR IGNORE INTO runs VALUES (?,?,?,?,?,?,?,?,?,?)",
                (
                    run_id, "bench", suite, git_rev, None, fingerprint,
                    canonical_json(config), started, started, suite,
                ),
            )
            if cur.rowcount == 0:
                return run_id
            conn.executemany(
                "INSERT INTO bench VALUES (?,?,?,?,?)",
                [(run_id, suite, key, value, schema) for key, value in flat.items()],
            )
            if path is not None:
                conn.execute(
                    "INSERT INTO artifacts VALUES (?,?,?)",
                    (run_id, str(path), _sha256_file(path)),
                )
        return run_id

    # --------------------------------------------------------------- queries
    def completed_run(
        self,
        kind: str,
        scenario: str,
        seed: int | None,
        fingerprint: str,
        *,
        git_rev: str | None = None,
    ) -> str | None:
        """Latest finished run id for one (cell, seed), or ``None``.

        ``git_rev`` defaults to the current revision — a code change
        invalidates completion, so resumable sweeps re-run the cell.
        """
        git_rev = git_rev or current_git_rev()
        row = self.connection.execute(
            "SELECT run_id FROM runs WHERE kind=? AND scenario=? AND "
            "seed IS ? AND config_fingerprint=? AND git_rev=? AND "
            "finished IS NOT NULL ORDER BY started DESC LIMIT 1",
            (kind, scenario, seed, fingerprint, git_rev),
        ).fetchone()
        return row["run_id"] if row is not None else None

    def run_metrics(self, run_id: str, *, labelled: bool = False) -> dict[str, float]:
        """A run's flat metrics (unlabelled rows only, unless asked)."""
        query = "SELECT name, value FROM metrics WHERE run_id=?"
        if not labelled:
            query += " AND labels='{}'"
        return {
            row["name"]: row["value"]
            for row in self.connection.execute(query, (run_id,))
        }

    def runs(
        self, *, kind: str | None = None, scenario: str | None = None
    ) -> list[sqlite3.Row]:
        """Run rows, newest first, optionally filtered."""
        clauses, params = [], []
        if kind is not None:
            clauses.append("kind=?")
            params.append(kind)
        if scenario is not None:
            clauses.append("scenario=?")
            params.append(scenario)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        return list(
            self.connection.execute(
                f"SELECT * FROM runs{where} ORDER BY started DESC", params
            )
        )

    def metric_rows(self, kind: str = "experiment") -> list[sqlite3.Row]:
        """Joined (run × metric) rows for report building."""
        return list(
            self.connection.execute(
                "SELECT r.run_id, r.scenario, r.seed, r.git_rev, r.started, "
                "r.config_fingerprint, m.name, m.value, m.labels "
                "FROM metrics m JOIN runs r ON m.run_id = r.run_id "
                "WHERE r.kind=? ORDER BY r.started, m.name",
                (kind,),
            )
        )

    def latest_bench(
        self, suite: str, *, before: str | None = None
    ) -> BenchPoint | None:
        """Most recent bench point for a suite (optionally excluding a run)."""
        query = (
            "SELECT * FROM runs WHERE kind='bench' AND scenario=?"
        )
        params: list = [suite]
        if before is not None:
            query += " AND run_id != ?"
            params.append(before)
        row = self.connection.execute(
            query + " ORDER BY started DESC LIMIT 1", params
        ).fetchone()
        if row is None:
            return None
        values, schema_version = {}, STORE_SCHEMA_VERSION
        for bench_row in self.connection.execute(
            "SELECT key, value, schema_version FROM bench WHERE run_id=?",
            (row["run_id"],),
        ):
            values[bench_row["key"]] = bench_row["value"]
            schema_version = bench_row["schema_version"]
        return BenchPoint(
            run_id=row["run_id"],
            suite=suite,
            git_rev=row["git_rev"],
            started=row["started"],
            schema_version=schema_version,
            values=values,
        )

    def bench_trajectory(self, suite: str, key: str) -> list[tuple[float, str, float]]:
        """(started, git_rev, value) points for one tracked bench key."""
        return [
            (row["started"], row["git_rev"], row["value"])
            for row in self.connection.execute(
                "SELECT r.started, r.git_rev, b.value FROM bench b "
                "JOIN runs r ON b.run_id = r.run_id "
                "WHERE b.suite=? AND b.key=? ORDER BY r.started",
                (suite, key),
            )
        ]

    def counts(self) -> dict[str, int]:
        """Row counts per table (``automdt store info``)."""
        return {
            table: self.connection.execute(
                f"SELECT COUNT(*) FROM {table}"  # noqa: S608 - fixed names
            ).fetchone()[0]
            for table in ("runs", "metrics", "artifacts", "bench")
        }
