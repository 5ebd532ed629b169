"""Bootstrap statistics for multi-seed experiment results.

The paper's Table I averages runs "repeated several times each day for a
week"; with a handful of seeded replicates, bootstrap confidence intervals
are the honest way to report the measured ratios.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.utils.rng import as_generator


@dataclass(frozen=True)
class ConfidenceInterval:
    """Point estimate with a bootstrap confidence interval."""

    estimate: float
    low: float
    high: float
    confidence: float

    def __contains__(self, value: float) -> bool:
        return self.low <= value <= self.high

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.estimate:.3g} [{self.low:.3g}, {self.high:.3g}] @{self.confidence:.0%}"


def bootstrap_ci(
    values: Sequence[float],
    statistic: Callable[[np.ndarray], float] = np.mean,
    *,
    n_boot: int = 2000,
    confidence: float = 0.95,
    rng: int | np.random.Generator | None = 0,
) -> ConfidenceInterval:
    """Percentile-bootstrap CI of ``statistic`` over ``values``."""
    data = np.asarray(values, dtype=float)
    if data.size == 0:
        raise ValueError("bootstrap over empty sample")
    generator = as_generator(rng)
    estimate = float(statistic(data))
    if data.size == 1:
        return ConfidenceInterval(estimate, estimate, estimate, confidence)
    idx = generator.integers(0, data.size, size=(n_boot, data.size))
    replicates = np.apply_along_axis(statistic, 1, data[idx])
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(replicates, [alpha, 1.0 - alpha])
    return ConfidenceInterval(estimate, float(low), float(high), confidence)


def ratio_ci(
    numerator: Sequence[float],
    denominator: Sequence[float],
    *,
    n_boot: int = 2000,
    confidence: float = 0.95,
    rng: int | np.random.Generator | None = 0,
) -> ConfidenceInterval:
    """Bootstrap CI of ``mean(numerator) / mean(denominator)``.

    Samples are resampled independently (unpaired runs).
    """
    num = np.asarray(numerator, dtype=float)
    den = np.asarray(denominator, dtype=float)
    if num.size == 0 or den.size == 0:
        raise ValueError("ratio over empty sample")
    if den.mean() == 0:
        raise ValueError("denominator mean is zero")
    generator = as_generator(rng)
    estimate = float(num.mean() / den.mean())
    if num.size == 1 and den.size == 1:
        return ConfidenceInterval(estimate, estimate, estimate, confidence)
    num_idx = generator.integers(0, num.size, size=(n_boot, num.size))
    den_idx = generator.integers(0, den.size, size=(n_boot, den.size))
    replicates = num[num_idx].mean(axis=1) / den[den_idx].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    low, high = np.quantile(replicates, [alpha, 1.0 - alpha])
    return ConfidenceInterval(estimate, float(low), float(high), confidence)

