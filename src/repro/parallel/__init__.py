"""Process-parallel execution layer for sweeps, grids and populations.

The repo's wall-clock story (offline PPO instead of ~5 days online) is
multiplied by the harness: seed sweeps, experiment grids and population
training are embarrassingly parallel but ran serially.  This package adds
the missing orchestration with zero dependencies beyond the stdlib:

* :class:`~repro.parallel.pool.ParallelMap` — warm worker processes,
  chunked dispatch, per-task timeout/retry with seeded backoff, crash
  isolation, deterministic reassembly;
* :func:`~repro.parallel.seeds.derive_seed` — SplitMix64 per-task seeds,
  a pure function of ``(root_seed, index)`` so parallel results are
  bit-identical to serial ones;
* :func:`~repro.parallel.obslog.merge_worker_logs` — folds per-worker
  ``events-worker<k>.jsonl`` telemetry back into the run's main log.

Consumers: ``repro.harness.grid.run_grid`` (``automdt sweep`` and
``automdt run --seeds``) and ``repro.core.population.train_population``.
"""

from repro.parallel.obslog import merge_worker_logs, worker_log_name
from repro.parallel.pool import (
    ParallelMap,
    ParallelMapError,
    TaskOutcome,
    available_workers,
    parallel_map,
)
from repro.parallel.seeds import derive_seed, derive_seeds, spawn_key

__all__ = [
    "ParallelMap",
    "ParallelMapError",
    "TaskOutcome",
    "available_workers",
    "derive_seed",
    "derive_seeds",
    "merge_worker_logs",
    "parallel_map",
    "spawn_key",
    "worker_log_name",
]
