"""The ``ResultSink`` protocol and the process-wide default store.

Harness code never constructs SQL: it builds a :class:`RunRecord` (or a
bench report dict) and hands it to whatever sink is active.  The sink is
usually a :class:`~repro.obs.store.db.ResultsStore`, resolved in order
of precedence:

1. an explicit ``store=`` argument (path or store object);
2. the process default installed by :func:`set_default_store` (the
   ``--store`` CLI flag does this);
3. the ``AUTOMDT_STORE`` environment variable (how CI and the bench
   scripts feed a store without plumbing a flag through every layer).

With none of the three configured every helper is a cheap no-op — the
store is opt-in, exactly like the obs session.
"""

from __future__ import annotations

import os
import time
from collections.abc import Mapping, Sequence
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.obs.store.db import ResultsStore, RunRecord

__all__ = [
    "ResultSink",
    "active_store",
    "experiment_config",
    "record_bench_report",
    "record_experiment",
    "record_report",
    "record_session",
    "resolve_store",
    "set_default_store",
]


@runtime_checkable
class ResultSink(Protocol):
    """What a results destination must implement (ResultsStore does)."""

    def ingest(self, record: RunRecord) -> str:  # pragma: no cover - protocol
        ...

    def ingest_bench(
        self, suite: str, report: Mapping, *, path: str | Path | None = None
    ) -> str:  # pragma: no cover - protocol
        ...


_default: ResultsStore | None = None
_env_store: tuple[str, ResultsStore] | None = None  # (env value, opened store)


def set_default_store(store: ResultsStore | str | Path | None) -> ResultsStore | None:
    """Install (or clear, with ``None``) the process-wide default store."""
    global _default
    if store is None:
        _default = None
    elif isinstance(store, ResultsStore):
        _default = store
    else:
        _default = ResultsStore(store)
    return _default


def active_store() -> ResultsStore | None:
    """The default store, falling back to ``AUTOMDT_STORE``; else ``None``."""
    global _env_store
    if _default is not None:
        return _default
    env = os.environ.get("AUTOMDT_STORE")
    if not env:
        return None
    if _env_store is None or _env_store[0] != env:
        _env_store = (env, ResultsStore(env))
    return _env_store[1]


def resolve_store(
    store: ResultsStore | str | Path | None,
) -> ResultsStore | None:
    """An explicit store/path argument, else the active default (or None)."""
    if store is None:
        return active_store()
    if isinstance(store, ResultsStore):
        return store
    return ResultsStore(store)


def experiment_config(name: str, **kwargs) -> dict:
    """The canonical config dict fingerprinted for one experiment cell.

    Only scalar kwargs participate (callables/objects are not part of a
    cell's identity); the ``v`` field versions the fingerprint recipe so a
    future change re-runs rather than wrongly skipping cells.
    """
    config = {"experiment": name, "v": 1}
    config.update(
        {
            key: value
            for key, value in sorted(kwargs.items())
            if isinstance(value, (bool, int, float, str))
        }
    )
    return config


def record_report(
    kind: str,
    scenario: str,
    *,
    seed: int | None = None,
    config: Mapping | None = None,
    metrics: Mapping | None = None,
    labelled_metrics: Sequence[tuple[str, float, Mapping[str, str]]] = (),
    artifacts: Sequence[str | Path] = (),
    started: float | None = None,
    finished: float | None = None,
    label: str = "",
    store: ResultsStore | str | Path | None = None,
) -> str | None:
    """Ingest one run-shaped report into the resolved store (no-op if none)."""
    sink = resolve_store(store)
    if sink is None:
        return None
    return sink.ingest(
        RunRecord(
            kind=kind,
            scenario=scenario,
            seed=seed,
            config=config,
            started=started,
            finished=finished if finished is not None else time.time(),
            metrics=metrics or {},
            labelled_metrics=labelled_metrics,
            artifacts=artifacts,
            label=label,
        )
    )


def record_experiment(
    name: str,
    seed: int,
    summary: Mapping,
    *,
    started: float,
    store: ResultsStore | str | Path | None = None,
    **kwargs,
) -> str | None:
    """Ingest one experiment cell: ``name`` run at ``seed`` with ``kwargs``.

    The run's config is :func:`experiment_config` of the name and the
    experiment's keyword arguments (``fast``, ``adapt``), and its metrics
    are the summary's numeric fields.  A no-op without a store.
    """
    return record_report(
        "experiment",
        name,
        seed=seed,
        config=experiment_config(name, **kwargs),
        metrics=summary,
        started=started,
        store=store,
    )


def record_bench_report(
    report: Mapping,
    *,
    path: str | Path | None = None,
    store: ResultsStore | str | Path | None = None,
) -> str | None:
    """Ingest one ``BENCH_*.json``-shaped report dict (no-op without a store).

    Called by every ``benchmarks/bench_*.py`` after it writes its report
    file; the suite name comes from the report's own ``bench`` field.
    """
    sink = resolve_store(store)
    if sink is None:
        return None
    suite = report.get("bench")
    if not suite:
        return None
    return sink.ingest_bench(str(suite), report, path=path)


def record_session(session, store: ResultsStore | str | Path | None = None) -> str | None:
    """Ingest a closing :class:`~repro.obs.session.ObsSession`'s registry.

    Counters and gauges land as metrics under their own names; histograms
    contribute ``<name>.sum`` and ``<name>.count``.  Labelled family
    children keep their labels.  Sessions with an empty registry are
    skipped — no run row for a session that measured nothing.
    """
    sink = resolve_store(store)
    if sink is None:
        return None
    snapshot = session.registry.snapshot()
    if not snapshot:
        return None
    plain: dict[str, float] = {}
    labelled: list[tuple[str, float, Mapping[str, str]]] = []
    for name, entries in snapshot.items():
        for entry in entries:
            labels = entry.get("labels") or {}
            if entry["kind"] == "histogram":
                pairs = [(f"{name}.sum", entry["sum"]), (f"{name}.count", entry["count"])]
            else:
                pairs = [(name, entry["value"])]
            for key, value in pairs:
                if labels:
                    labelled.append((key, float(value), labels))
                else:
                    plain[key] = float(value)
    artifacts: list[Path] = []
    if session.run_dir is not None:
        from repro.obs.session import PROMETHEUS_FILENAME

        prom = Path(session.run_dir) / PROMETHEUS_FILENAME
        if prom.exists():
            artifacts.append(prom)
    return sink.ingest(
        RunRecord(
            kind="obs",
            scenario=session.label or "session",
            metrics=plain,
            labelled_metrics=labelled,
            artifacts=artifacts,
            finished=time.time(),
            label=session.label,
        )
    )
