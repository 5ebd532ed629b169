"""The AutoMDT utility (reward) function, §IV-B.

``U(n, t) = t_r / k^{n_r} + t_n / k^{n_n} + t_w / k^{n_w}``

Throughput raises utility; every extra thread divides it by ``k``.  The
penalty base ``k`` trades throughput against resource usage: the paper's
sweep over 1–25 Gbps links found the sweet spot "just above 1" and fixes
``k = 1.02`` for all results.  The theoretical maximum reward used by the
convergence criterion (§IV-E) is

``R_max = b (k^{-n_r*} + k^{-n_n*} + k^{-n_w*})``

with ``b`` the measured bottleneck and ``n_i*`` the ideal thread counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.config import require_positive
from repro.utils.errors import ConfigError

DEFAULT_K = 1.02


@dataclass(frozen=True)
class UtilityFunction:
    """Callable implementing the paper's utility with penalty base ``k``."""

    k: float = DEFAULT_K

    def __post_init__(self) -> None:
        require_positive(self.k, "k")
        if self.k < 1.0:
            raise ConfigError(
                f"penalty base k must be >= 1 (k < 1 would *reward* extra threads), got {self.k}"
            )

    def stage_utility(self, throughput: float, threads: float) -> float:
        """Utility contributed by one stage: ``t / k^n``."""
        return throughput / self.k**threads

    def __call__(self, throughputs, threads) -> float:
        """Total utility ``U = Σ_i t_i / k^{n_i}``.

        ``throughputs`` in Mbps, ``threads`` as the ``(n_r, n_n, n_w)``
        triple.
        """
        t = np.asarray(throughputs, dtype=float)
        n = np.asarray(threads, dtype=float)
        if t.shape != (3,) or n.shape != (3,):
            raise ConfigError(
                f"expected 3 throughputs and 3 thread counts, got {t.shape} and {n.shape}"
            )
        return float((t / self.k**n).sum())

    def max_reward(self, bottleneck: float, optimal_threads) -> float:
        """Theoretical per-step maximum ``R_max`` (§IV-E).

        At the optimum every stage moves ``b`` Mbps using its ideal thread
        count, so ``R_max = b Σ_i k^{-n_i*}``.
        """
        n = np.asarray(optimal_threads, dtype=float)
        if n.shape != (3,):
            raise ConfigError(f"expected 3 optimal thread counts, got {n.shape}")
        return float(bottleneck * (self.k**-n).sum())
