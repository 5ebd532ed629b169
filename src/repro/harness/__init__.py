"""Experiment harness: one entry point per paper table/figure.

Each experiment function is pure-Python callable (used by the benchmark
suite) and registered with the CLI::

    python -m repro.harness run figure3
    python -m repro.harness list

Results print as the same rows/series the paper reports and can be dumped
to JSON.  Multi-seed runs (``run --seeds`` and ``sweep`` alike) go through
:func:`~repro.harness.grid.run_grid`, which aggregates each experiment's
summary over its seeds.
"""

from repro.harness.artifacts import trained_automdt
from repro.harness.grid import AggregateResult, GridResult, aggregate, parse_seeds, run_grid
from repro.harness.soak import SoakConfig, render_soak_report, run_soak
from repro.harness.experiments import (
    EXPERIMENTS,
    experiment_faults,
    experiment_integrity,
    experiment_figure1,
    experiment_figure3,
    experiment_figure4,
    experiment_figure5,
    experiment_filelevel,
    experiment_finetune,
    experiment_k_sweep,
    experiment_monolithic,
    experiment_online_drl,
    experiment_parallelism,
    experiment_sim2real,
    experiment_state_ablation,
    experiment_table1,
    experiment_training,
)

__all__ = [
    "trained_automdt",
    "AggregateResult",
    "GridResult",
    "aggregate",
    "parse_seeds",
    "run_grid",
    "SoakConfig",
    "render_soak_report",
    "run_soak",
    "EXPERIMENTS",
    "experiment_faults",
    "experiment_integrity",
    "experiment_figure1",
    "experiment_figure3",
    "experiment_figure4",
    "experiment_figure5",
    "experiment_table1",
    "experiment_training",
    "experiment_finetune",
    "experiment_k_sweep",
    "experiment_state_ablation",
    "experiment_monolithic",
    "experiment_sim2real",
    "experiment_filelevel",
    "experiment_online_drl",
    "experiment_parallelism",
]
