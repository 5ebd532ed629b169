"""Seeded, deterministic drift detectors for production transfers.

Two classic sequential change detectors, both pure functions of the update
sequence (no wall clock, no RNG of their own — determinism comes for free):

* :class:`PageHinkley` — one-sided Page–Hinkley test on the running-mean
  deviation.  After a warmup that freezes a reference mean, each sample's
  deviation (in the watched direction) accumulates into ``m_t``; drift fires
  when the accumulated deviation exceeds ``threshold`` relative to its own
  running minimum.  Robust to slow ramps — the statistic integrates small
  per-sample deltas.
* :class:`WindowedCusum` — two-sided CUSUM against a frozen reference mean
  and standard deviation estimated over the first ``reference_window``
  samples; fires when the normalised cumulative sum ``g+``/``g−`` exceeds
  ``threshold``.  A ``min_std`` floor keeps 0/1 indicator signals (stall
  incidence, retry occurrence) usable.

:class:`DriftMonitor` composes three channels the way
:class:`repro.adapt.controller.AdaptiveController` consumes supervisor
observations: probed total throughput (downward PH), stall incidence
(upward CUSUM) and retry occurrence (upward CUSUM).  ``rebaseline()``
re-arms everything against the *current* regime — called after a correction
is promoted or a rollback completes, so the detectors hunt for the next
drift rather than re-firing on the old one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.utils.config import require_positive

__all__ = ["PageHinkley", "WindowedCusum", "DriftMonitor", "DriftMonitorConfig"]


class PageHinkley:
    """One-sided Page–Hinkley change detector.

    ``direction='down'`` (default) watches for the signal *dropping* below
    its warmup reference — the shape of a bandwidth ramp eating probed
    throughput.  ``direction='up'`` watches for increases.

    ``threshold`` and ``delta`` are expressed as fractions of the warmup
    reference mean (the signal is normalised by it), so one configuration
    works across testbeds whose absolute throughput differs by orders of
    magnitude.
    """

    def __init__(
        self,
        *,
        threshold: float = 1.5,
        delta: float = 0.02,
        warmup: int = 8,
        direction: str = "down",
    ) -> None:
        require_positive(threshold, "threshold")
        require_positive(warmup, "warmup")
        if delta < 0.0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        if direction not in ("down", "up"):
            raise ValueError(f"direction must be 'down' or 'up', got {direction!r}")
        self.threshold = float(threshold)
        self.delta = float(delta)
        self.warmup = int(warmup)
        self.direction = direction
        self.reset()

    def reset(self) -> None:
        """Forget everything, including the warmup reference."""
        self._count = 0
        self._warmup_sum = 0.0
        self._reference = 0.0
        self._cumulative = 0.0
        self._minimum = 0.0
        self.fired = False
        self.fired_at_sample: int | None = None

    def update(self, value: float) -> bool:
        """Feed one sample; return True while the detector is in alarm."""
        if not math.isfinite(value):
            return self.fired  # ignore junk samples (probe dropouts)
        self._count += 1
        if self._count <= self.warmup:
            self._warmup_sum += value
            if self._count == self.warmup:
                self._reference = self._warmup_sum / self.warmup
            return False
        scale = abs(self._reference) if self._reference != 0.0 else 1.0
        deviation = (value - self._reference) / scale
        if self.direction == "down":
            deviation = -deviation
        # Accumulate deviation in the watched direction, minus the drift
        # allowance; fire when it rises `threshold` above its running min.
        self._cumulative += deviation - self.delta
        self._minimum = min(self._minimum, self._cumulative)
        if self._cumulative - self._minimum > self.threshold and not self.fired:
            self.fired = True
            self.fired_at_sample = self._count
        return self.fired


class WindowedCusum:
    """Two-sided CUSUM against a frozen reference window.

    The first ``reference_window`` samples freeze a reference mean/std;
    subsequent samples update ``g+ = max(0, g+ + z - drift)`` and
    ``g- = max(0, g- - z - drift)`` with ``z`` the standardised deviation.
    Fires when the watched side exceeds ``threshold``.
    """

    def __init__(
        self,
        *,
        threshold: float = 5.0,
        drift: float = 0.5,
        reference_window: int = 8,
        min_std: float = 0.05,
        direction: str = "both",
    ) -> None:
        require_positive(threshold, "threshold")
        require_positive(reference_window, "reference_window")
        require_positive(min_std, "min_std")
        if drift < 0.0:
            raise ValueError(f"drift must be non-negative, got {drift}")
        if direction not in ("up", "down", "both"):
            raise ValueError(f"direction must be 'up', 'down' or 'both', got {direction!r}")
        self.threshold = float(threshold)
        self.drift = float(drift)
        self.reference_window = int(reference_window)
        self.min_std = float(min_std)
        self.direction = direction
        self.reset()

    def reset(self) -> None:
        """Forget everything, including the frozen reference."""
        self._count = 0
        self._window: list[float] = []
        self._mean = 0.0
        self._std = self.min_std
        self._g_pos = 0.0
        self._g_neg = 0.0
        self.fired = False
        self.fired_at_sample: int | None = None

    def update(self, value: float) -> bool:
        """Feed one sample; return True while the detector is in alarm."""
        if not math.isfinite(value):
            return self.fired
        self._count += 1
        if self._count <= self.reference_window:
            self._window.append(float(value))
            if self._count == self.reference_window:
                mean = sum(self._window) / len(self._window)
                var = sum((v - mean) ** 2 for v in self._window) / len(self._window)
                self._mean = mean
                self._std = max(math.sqrt(var), self.min_std)
                self._window = []
            return False
        z = (value - self._mean) / self._std
        self._g_pos = max(0.0, self._g_pos + z - self.drift)
        self._g_neg = max(0.0, self._g_neg - z - self.drift)
        alarm = False
        if self.direction in ("up", "both") and self._g_pos > self.threshold:
            alarm = True
        if self.direction in ("down", "both") and self._g_neg > self.threshold:
            alarm = True
        if alarm and not self.fired:
            self.fired = True
            self.fired_at_sample = self._count
        return self.fired


@dataclass(frozen=True)
class DriftMonitorConfig:
    """Knobs for the three composed drift channels."""

    throughput_threshold: float = 1.5
    # The per-sample drift allowance must sit at or above the relative
    # throughput noise floor (~5% in the emulator), or stationary random
    # walks false-fire; real drift deviations are ~10x larger.
    throughput_delta: float = 0.05
    warmup: int = 8
    stall_threshold: float = 6.0
    stall_drift: float = 0.5
    retry_threshold: float = 4.0
    retry_drift: float = 0.5

    def __post_init__(self) -> None:
        require_positive(self.throughput_threshold, "throughput_threshold")
        require_positive(self.warmup, "warmup")
        require_positive(self.stall_threshold, "stall_threshold")
        require_positive(self.retry_threshold, "retry_threshold")


@dataclass(frozen=True)
class DriftSignal:
    """One drift verdict with its contributing channels."""

    drifted: bool
    channels: tuple[str, ...] = field(default_factory=tuple)


#: The verdict of an interval on which no channel is in alarm, shared.
_QUIET = DriftSignal(drifted=False)


class DriftMonitor:
    """Composite monitor over throughput, stall incidence and retry rate."""

    def __init__(self, config: DriftMonitorConfig | None = None) -> None:
        self.config = config or DriftMonitorConfig()
        self.detections = 0
        self.rebaselines = 0
        self._was_drifted = False
        self._build()

    def _build(self) -> None:
        c = self.config
        self.throughput = PageHinkley(
            threshold=c.throughput_threshold,
            delta=c.throughput_delta,
            warmup=c.warmup,
            direction="down",
        )
        self.stalls = WindowedCusum(
            threshold=c.stall_threshold,
            drift=c.stall_drift,
            reference_window=c.warmup,
            direction="up",
        )
        self.retries = WindowedCusum(
            threshold=c.retry_threshold,
            drift=c.retry_drift,
            reference_window=c.warmup,
            direction="up",
        )

    def update(
        self, *, throughput: float, stalled: bool, retried: bool
    ) -> DriftSignal:
        """Feed one supervisor interval; return the composite verdict."""
        in_throughput = self.throughput.update(throughput)
        in_stalls = self.stalls.update(1.0 if stalled else 0.0)
        in_retries = self.retries.update(1.0 if retried else 0.0)
        if not (in_throughput or in_stalls or in_retries):
            self._was_drifted = False
            return _QUIET
        if not self._was_drifted:
            self.detections += 1  # rising edge: one detection per alarm episode
        self._was_drifted = True
        channels = ("throughput",) if in_throughput else ()
        if in_stalls:
            channels += ("stalls",)
        if in_retries:
            channels += ("retries",)
        return DriftSignal(drifted=True, channels=channels)

    def rebaseline(self) -> None:
        """Re-arm every channel against the current regime."""
        self._build()
        self._was_drifted = False
        self.rebaselines += 1
