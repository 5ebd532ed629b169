"""A small time-series container used by engines, optimizers and the harness.

Engines record one sample per (virtual) second: throughputs, thread counts,
buffer occupancy.  The harness then asks shape questions of those series —
"when did concurrency first reach 20?", "what was the mean throughput after
warm-up?" — which this class answers directly.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np


class TimeSeries:
    """Append-only series of ``(time, value)`` samples.

    Times must be non-decreasing.  Values are floats.
    """

    __slots__ = ("name", "_times", "_values")

    def __init__(self, name: str = "", samples: Iterable[tuple[float, float]] = ()) -> None:
        self.name = name
        self._times: list[float] = []
        self._values: list[float] = []
        for t, v in samples:
            self.append(t, v)

    def append(self, t: float, value: float) -> None:
        """Record ``value`` at time ``t`` (must not precede the last sample)."""
        if self._times and t < self._times[-1]:
            raise ValueError(
                f"time {t} precedes last recorded time {self._times[-1]} in {self.name!r}"
            )
        self._times.append(float(t))
        self._values.append(float(value))

    # ------------------------------------------------------------------ views
    @property
    def times(self) -> np.ndarray:
        """Sample times as an array."""
        return np.asarray(self._times, dtype=float)

    @property
    def values(self) -> np.ndarray:
        """Sample values as an array."""
        return np.asarray(self._values, dtype=float)

    def __len__(self) -> int:
        return len(self._times)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(zip(self._times, self._values))

    def __getitem__(self, idx: int) -> tuple[float, float]:
        return self._times[idx], self._values[idx]

    @property
    def last(self) -> float:
        """Most recent value (raises IndexError when empty)."""
        return self._values[-1]

    # ------------------------------------------------------------- statistics
    def mean(self, t_start: float = 0.0, t_end: float = float("inf")) -> float:
        """Arithmetic mean of values sampled in ``[t_start, t_end]``."""
        times, values = self.times, self.values
        mask = (times >= t_start) & (times <= t_end)
        if not mask.any():
            return float("nan")
        return float(values[mask].mean())

    def max(self) -> float:
        """Largest value observed (nan when empty)."""
        return float(self.values.max()) if self._values else float("nan")

    def min(self) -> float:
        """Smallest value observed (nan when empty)."""
        return float(self.values.min()) if self._values else float("nan")

    def std(self, t_start: float = 0.0, t_end: float = float("inf")) -> float:
        """Standard deviation of values sampled in ``[t_start, t_end]``."""
        times, values = self.times, self.values
        mask = (times >= t_start) & (times <= t_end)
        if not mask.any():
            return float("nan")
        return float(values[mask].std())

    def time_to_reach(self, threshold: float, *, sustain: int = 1) -> float | None:
        """First time the series reaches ``threshold`` and stays there.

        ``sustain`` is the number of consecutive samples that must be at or
        above the threshold (1 = the first touch).  Returns ``None`` if the
        series never qualifies — the measure behind the paper's "AutoMDT
        reaches 20 streams in 7 s" style claims.
        """
        values = self.values
        if len(values) < sustain:
            return None
        ok = values >= threshold
        run = 0
        for i, flag in enumerate(ok):
            run = run + 1 if flag else 0
            if run >= sustain:
                return self._times[i - sustain + 1]
        return None

    def resample(self, dt: float, t_end: float | None = None) -> "TimeSeries":
        """Zero-order-hold resample onto a regular grid of spacing ``dt``."""
        if not self._times:
            return TimeSeries(self.name)
        t_end = self._times[-1] if t_end is None else t_end
        grid = np.arange(self._times[0], t_end + dt * 0.5, dt)
        idx = np.searchsorted(self.times, grid, side="right") - 1
        idx = np.clip(idx, 0, len(self._values) - 1)
        vals = self.values[idx]
        return TimeSeries(self.name, zip(grid.tolist(), vals.tolist()))

    def to_dict(self) -> dict:
        """Serialize to a plain dict (JSON-friendly)."""
        return {"name": self.name, "times": list(self._times), "values": list(self._values)}

    @classmethod
    def from_dict(cls, data: dict) -> "TimeSeries":
        """Inverse of :meth:`to_dict`."""
        return cls(data.get("name", ""), zip(data["times"], data["values"]))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"TimeSeries({self.name!r}, n={len(self)})"
