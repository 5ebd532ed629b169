"""Experiment grid runner: experiments × seeds over the process pool.

Every multi-seed run goes through :func:`run_grid`: ``automdt sweep`` and
``automdt run --seeds`` are its CLI faces.  The paper's Table I numbers
are "averages of those runs" repeated over a week; a grid reproduces that
protocol by running each experiment across several seeds and aggregating
every numeric summary field into mean/std/min/max.

A grid flattens to one task per (experiment, seed) cell and fans the cells
out across a :class:`repro.parallel.ParallelMap` pool — better load
balance than parallelising seeds within one experiment at a time, because
a slow cell (e.g. ``table1``) overlaps with every other experiment's cells
instead of serialising behind its siblings.

Each cell calls the registered experiment exactly as the serial harness
would, so a parallel grid reproduces the serial numbers bit-for-bit; cells
that fail (crash, timeout, exception) are reported per-cell instead of
sinking the sweep.

With a results store active (``--store`` / ``AUTOMDT_STORE``, see
:mod:`repro.obs.store`) the grid becomes *resumable*: before dispatch it
queries the store for already-completed (cell, seed) pairs at the current
git revision and config fingerprint and skips them, loading their stored
metrics into the aggregates instead of recomputing — the
``run_missing_experiments`` pattern.  Fresh cells are ingested on
completion, so an interrupted sweep re-run finishes only the missing
cells and appends no duplicate rows.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.harness.result import ExperimentResult
from repro.parallel import ParallelMap, TaskOutcome, merge_worker_logs
from repro.utils.tables import render_table

__all__ = ["AggregateResult", "GridResult", "aggregate", "parse_seeds", "run_grid"]


def parse_seeds(spec: str | Sequence[int]) -> list[int]:
    """Parse a seed spec: ``"0-9"``, ``"0,1,5"``, ``"0-3,8"`` or an int list.

    Ranges are inclusive on both ends, matching how sweep sizes are quoted
    ("seeds 0-9" is a 10-seed sweep).
    """
    if not isinstance(spec, str):
        return [int(s) for s in spec]
    seeds: list[int] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if "-" in part[1:]:  # allow a leading minus sign
            lo_text, hi_text = part[1:].split("-", 1)
            lo, hi = int(part[0] + lo_text), int(hi_text)
            if hi < lo:
                raise ValueError(f"descending seed range {part!r}")
            seeds.extend(range(lo, hi + 1))
        else:
            seeds.append(int(part))
    if not seeds:
        raise ValueError(f"no seeds in spec {spec!r}")
    return seeds


@dataclass
class AggregateResult:
    """Per-metric statistics over several seeded runs of one experiment."""

    name: str
    seeds: tuple[int, ...]
    runs: list[ExperimentResult]
    stats: dict[str, dict[str, float]] = field(default_factory=dict)

    def table(self) -> str:
        """Render the aggregated metrics as a text table."""
        rows = [
            [key, round(s["mean"], 3), round(s["std"], 3), round(s["min"], 3),
             round(s["max"], 3), int(s["n"])]
            for key, s in sorted(self.stats.items())
        ]
        return render_table(
            ["metric", "mean", "std", "min", "max", "n"],
            rows,
            title=f"{self.name} over seeds {list(self.seeds)}",
        )

    def mean(self, metric: str) -> float:
        """Mean of one aggregated metric (KeyError if never numeric)."""
        return self.stats[metric]["mean"]


def aggregate(
    name: str, seeds: Sequence[int], runs: Sequence[ExperimentResult]
) -> AggregateResult:
    """Fold per-seed :class:`ExperimentResult` runs into mean/std/min/max.

    Metrics that are missing (e.g. a "time to reach" that is None for some
    seed) are aggregated over the runs where they exist; ``n`` records how
    many runs contributed.
    """
    from repro.obs.store import flatten_numeric, sample_stats

    samples: dict[str, list[float]] = {}
    for run in runs:
        for key, value in flatten_numeric(run.summary).items():
            samples.setdefault(key, []).append(value)
    return AggregateResult(
        name=name,
        seeds=tuple(int(s) for s in seeds),
        runs=list(runs),
        stats={key: sample_stats(vals) for key, vals in samples.items()},
    )


@dataclass
class GridResult:
    """Everything one grid sweep produced."""

    experiments: tuple[str, ...]
    seeds: tuple[int, ...]
    #: per-experiment aggregate over the seeds that succeeded
    aggregates: dict[str, AggregateResult] = field(default_factory=dict)
    #: failed cells; ``TaskOutcome.value`` is None, ``.error`` says why
    failures: list[tuple[str, int, TaskOutcome]] = field(default_factory=list)
    #: cells found complete in the results store and not re-run
    skipped: list[tuple[str, int]] = field(default_factory=list)
    #: per-cell JSON files written under ``out``
    saved: list[Path] = field(default_factory=list)
    workers: int = 1
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def table(self) -> str:
        """One row per experiment: cells, failures, headline wall time."""
        rows = []
        failed_by_name: dict[str, int] = {}
        for name, _seed, _outcome in self.failures:
            failed_by_name[name] = failed_by_name.get(name, 0) + 1
        skipped_by_name: dict[str, int] = {}
        for name, _seed in self.skipped:
            skipped_by_name[name] = skipped_by_name.get(name, 0) + 1
        for name in self.experiments:
            agg = self.aggregates.get(name)
            rows.append([
                name,
                len(agg.runs) if agg is not None else 0,
                failed_by_name.get(name, 0),
                skipped_by_name.get(name, 0),
                len(agg.stats) if agg is not None else 0,
            ])
        return render_table(
            ["experiment", "runs", "failed", "skipped", "metrics"],
            rows,
            title=(
                f"sweep over seeds {list(self.seeds)} — "
                f"{self.workers} worker(s), {self.wall_seconds:.1f}s"
            ),
        )


def run_grid(
    experiments: Sequence[str],
    seeds: Sequence[int],
    *,
    fast: bool = True,
    workers: int = 1,
    timeout: float | None = None,
    retries: int = 0,
    out: str | Path | None = None,
    store=None,
    resume: bool = True,
    **kwargs,
) -> GridResult:
    """Run every (experiment, seed) cell, optionally in parallel.

    Each cell calls ``EXPERIMENTS[name](fast=fast, seed=seed, **kwargs)``;
    ``kwargs`` (``adapt=True``) joins ``fast`` in every cell's identity in
    the store.  ``workers`` follows :class:`ParallelMap` semantics (``0`` =
    all cores, ``1`` = serial in-process).  If a global obs session with a
    run directory is active, pool workers write per-worker event logs
    there and they are merged back after the sweep.  With ``out`` set,
    every fresh cell is saved as ``<out>/<experiment>_seed<k>.json``.

    ``store`` is a results database (path or
    :class:`~repro.obs.store.ResultsStore`; defaults to the process's
    active store, if any).  Fresh cells are ingested as they complete;
    with ``resume`` (default) cells the store already holds — same
    experiment, seed, config fingerprint and git revision — are skipped
    and their stored metrics join the aggregates, so re-running an
    interrupted sweep computes only what is missing and never duplicates
    rows.
    """
    from repro import obs
    from repro.harness.experiments import EXPERIMENTS
    from repro.obs.store import (
        experiment_config,
        fingerprint_config,
        record_experiment,
        resolve_store,
    )

    unknown = [n for n in experiments if n not in EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiment(s): {unknown}")
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("need at least one seed")

    sink = resolve_store(store)
    cells = [(name, seed) for name in experiments for seed in seeds]
    result = GridResult(experiments=tuple(experiments), seeds=tuple(seeds))
    runs_by_name: dict[str, list[tuple[int, ExperimentResult]]] = {}

    pending = cells
    if sink is not None and resume:
        fingerprints = {
            name: fingerprint_config(experiment_config(name, fast=fast, **kwargs))
            for name in experiments
        }
        pending = []
        for name, seed in cells:
            run_id = sink.completed_run("experiment", name, seed, fingerprints[name])
            if run_id is None:
                pending.append((name, seed))
            else:
                # Rebuild the cell's result from its stored flat metrics —
                # flattening is idempotent, so the aggregate is identical.
                stored = ExperimentResult(name, summary=sink.run_metrics(run_id))
                runs_by_name.setdefault(name, []).append((seed, stored))
                result.skipped.append((name, seed))

    def call(cell: tuple[str, int]) -> ExperimentResult:
        name, seed = cell
        return EXPERIMENTS[name](fast=fast, seed=seed, **kwargs)

    sess = obs.active()
    run_dir = sess.run_dir if sess is not None else None

    started = time.perf_counter()
    sweep_started = time.time()
    pool = ParallelMap(
        call, workers=workers, timeout=timeout, retries=retries, obs_dir=run_dir
    )
    try:
        outcomes = pool.map(pending) if pending else []
    finally:
        if run_dir is not None:
            merge_worker_logs(run_dir)
    result.workers = pool.workers
    result.wall_seconds = time.perf_counter() - started

    fresh: list[tuple[str, int, ExperimentResult]] = []
    for (name, seed), outcome in zip(pending, outcomes):
        if outcome.ok:
            runs_by_name.setdefault(name, []).append((seed, outcome.value))
            fresh.append((name, seed, outcome.value))
        else:
            result.failures.append((name, seed, outcome))
    for name, seed, run in fresh:
        record_experiment(
            name, seed, run.summary,
            started=sweep_started, store=sink, fast=fast, **kwargs,
        )
    for name, seeded_runs in runs_by_name.items():
        result.aggregates[name] = aggregate(
            name, [s for s, _ in seeded_runs], [r for _, r in seeded_runs]
        )
    if out is not None:
        for name, seed, run in fresh:
            run.name = f"{name}_seed{seed}"
            result.saved.append(run.save(out))
    return result
