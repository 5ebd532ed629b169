"""Reference oracles: the per-interval guard and probe code before its fast paths.

:class:`OracleGuard` is :class:`repro.transfer.guarded.GuardedController`
with its original ``_sanitize``, ``_proposal_pathology`` and ``_clamp``,
which convert and compare every field and every thread count on every
interval.  :class:`OracleProbe` is the original
:class:`repro.transfer.probing.ThroughputProbe`, which builds its generator
whether or not it is noisy and sends every reading through numpy.  The
production classes must return what these return, raise what they raise,
and leave the same state behind, on any input.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from repro.transfer.engine import Observation
from repro.transfer.guarded import GuardedController, _finite
from repro.transfer.probing import ThroughputProbe
from repro.utils.config import require_in_range, require_non_negative
from repro.utils.rng import as_generator


class OracleGuard(GuardedController):
    """The guard with its original field-by-field checks."""

    def _sanitize(self, obs: Observation) -> tuple[Observation, bool]:
        throughputs = tuple(max(0.0, _finite(v)) for v in obs.throughputs)
        sender_capacity = obs.sender_capacity
        receiver_capacity = obs.receiver_capacity
        dirty = throughputs != tuple(float(v) for v in obs.throughputs)
        if not math.isfinite(sender_capacity) or sender_capacity <= 0.0:
            sender_capacity, dirty = 1.0, True
        if not math.isfinite(receiver_capacity) or receiver_capacity <= 0.0:
            receiver_capacity, dirty = 1.0, True
        sender_free = _finite(obs.sender_free, sender_capacity)
        receiver_free = _finite(obs.receiver_free, receiver_capacity)
        sender_free = min(max(sender_free, 0.0), sender_capacity)
        receiver_free = min(max(receiver_free, 0.0), receiver_capacity)
        if (sender_free, receiver_free) != (obs.sender_free, obs.receiver_free):
            dirty = True
        if not dirty:
            return obs, False
        return (
            replace(
                obs,
                throughputs=throughputs,
                sender_capacity=sender_capacity,
                receiver_capacity=receiver_capacity,
                sender_free=sender_free,
                receiver_free=receiver_free,
            ),
            True,
        )

    def _proposal_pathology(self, proposal) -> str | None:
        try:
            triple = tuple(float(n) for n in proposal)
        except (TypeError, ValueError):
            return "malformed"
        if len(triple) != 3 or any(not math.isfinite(n) for n in triple):
            return "malformed"
        if any(n < 1 or n > self.max_threads for n in triple):
            self._range_streak += 1
            if self._range_streak >= self.out_of_range_limit:
                return "out_of_range"
        else:
            self._range_streak = 0
        if self._last_proposal is not None:
            jump = sum(abs(a - b) for a, b in zip(triple, self._last_proposal))
            if jump >= self.thrash_threshold:
                self._thrash_streak += 1
                if self._thrash_streak >= self.thrash_window:
                    return "thrashing"
            else:
                self._thrash_streak = 0
        return None

    def _clamp(self, proposal) -> tuple[int, int, int]:
        triple = []
        for n in proposal:
            value = float(n)
            if not math.isfinite(value):
                value = 1.0
            triple.append(int(min(self.max_threads, max(1, round(value)))))
        return (triple[0], triple[1], triple[2])


class OracleProbe(ThroughputProbe):
    """The probe that always builds its generator and always goes through numpy."""

    def __init__(self, noise_sigma=0.0, smoothing=0.0, rng=None) -> None:
        require_non_negative(noise_sigma, "noise_sigma")
        require_in_range(smoothing, 0.0, 0.99, "smoothing")
        self.noise_sigma = noise_sigma
        self.smoothing = smoothing
        self._rng = as_generator(rng)
        self._ewma = None

    def observe(self, throughputs):
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
