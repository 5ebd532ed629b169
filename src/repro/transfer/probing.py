"""Throughput probing: what the optimizer *sees* each interval.

The testbed reports exact byte flows; a real tool measures throughput by
sampling counters, which adds error.  :class:`ThroughputProbe` injects
optional multiplicative Gaussian measurement noise and exposes an EWMA for
controllers that want smoothed readings (Marlin's gradient estimates are
noticeably affected by this noise — part of its instability story).
"""

from __future__ import annotations

import numpy as np

from repro.utils.config import require_in_range, require_non_negative
from repro.utils.rng import as_generator


class ThroughputProbe:
    """Applies measurement noise and optional smoothing to stage throughputs."""

    def __init__(
        self,
        noise_sigma: float = 0.0,
        smoothing: float = 0.0,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        require_non_negative(noise_sigma, "noise_sigma")
        require_in_range(smoothing, 0.0, 0.99, "smoothing")
        self.noise_sigma = noise_sigma
        self.smoothing = smoothing
        # Only a noisy probe draws: a silent one never builds its generator.
        self._rng = as_generator(rng) if noise_sigma > 0.0 else None
        self._ewma: np.ndarray | None = None

    def observe(self, throughputs: tuple[float, float, float]) -> tuple[float, float, float]:
        """Return the measured (noisy, optionally smoothed) throughputs.

        Without noise or smoothing, a tuple of three floats is returned as
        it is: the numpy round trip below would rebuild the same floats.
        """
        if (
            self.noise_sigma == 0.0
            and self.smoothing == 0.0
            and type(throughputs) is tuple
            and len(throughputs) == 3
            and type(throughputs[0]) is float
            and type(throughputs[1]) is float
            and type(throughputs[2]) is float
        ):
            return throughputs
        values = np.asarray(throughputs, dtype=float)
        if self.noise_sigma > 0.0:
            factors = 1.0 + self._rng.normal(0.0, self.noise_sigma, size=3)
            values = values * np.clip(factors, 0.5, 1.5)
        if self.smoothing > 0.0:
            if self._ewma is None:
                self._ewma = values.copy()
            else:
                self._ewma = self.smoothing * self._ewma + (1.0 - self.smoothing) * values
            values = self._ewma
        return (float(values[0]), float(values[1]), float(values[2]))

    def reset(self) -> None:
        """Drop the EWMA state."""
        self._ewma = None
