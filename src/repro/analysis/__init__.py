"""Statistical analysis helpers for experiment results.

* :mod:`repro.analysis.stats` — bootstrap confidence intervals and ratio
  CIs (for "AutoMDT is 1.33× Marlin"-style claims).
* :mod:`repro.analysis.convergence` — rolling means and the rolling-mean
  convergence episode of a training curve.
* :mod:`repro.analysis.export` — CSV / markdown exporters so figures can be
  re-plotted outside this repo.
"""

from repro.analysis.convergence import rolling_convergence_episode, rolling_mean
from repro.analysis.export import export_experiment, series_to_csv, summary_to_markdown
from repro.analysis.stats import bootstrap_ci, ratio_ci

__all__ = [
    "rolling_mean",
    "rolling_convergence_episode",
    "bootstrap_ci",
    "ratio_ci",
    "series_to_csv",
    "summary_to_markdown",
    "export_experiment",
]
