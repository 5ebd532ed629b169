"""Reference oracles: the envelope clamp and the drift monitor before their fast paths.

:class:`OracleEnvelope` clamps with ``min``/``max`` over an enumerated
stage loop, and :class:`OracleMonitor` builds a channel list and a fresh
:class:`~repro.adapt.detectors.DriftSignal` on every interval, as
:class:`repro.adapt.envelope.SafetyEnvelope` and
:class:`repro.adapt.detectors.DriftMonitor` did.  The production classes
must return and raise what these do and leave the same counts behind.
"""

from __future__ import annotations

from repro.adapt.detectors import DriftMonitor, DriftSignal
from repro.adapt.envelope import SafetyEnvelope

_STAGES = ("read", "network", "write")


class OracleEnvelope(SafetyEnvelope):
    """The envelope with its original min/max stage loop."""

    def clamp(self, proposal, previous, counts=None):
        clamped = []
        for i, stage in enumerate(_STAGES):
            value = int(proposal[i])
            if previous is not None:
                lo_step = previous[i] - self.max_delta_per_interval
                hi_step = previous[i] + self.max_delta_per_interval
                value = min(max(value, lo_step), hi_step)
            value = min(max(value, self.min_threads[i]), self.max_threads[i])
            if counts is not None and value != int(proposal[i]):
                counts[stage] = counts.get(stage, 0) + 1
            clamped.append(value)
        return (clamped[0], clamped[1], clamped[2])


class OracleMonitor(DriftMonitor):
    """The monitor that lists its channels on every interval."""

    def update(self, *, throughput, stalled, retried):
        channels: list[str] = []
        if self.throughput.update(throughput):
            channels.append("throughput")
        if self.stalls.update(1.0 if stalled else 0.0):
            channels.append("stalls")
        if self.retries.update(1.0 if retried else 0.0):
            channels.append("retries")
        drifted = bool(channels)
        if drifted and not self._was_drifted:
            self.detections += 1
        self._was_drifted = drifted
        return DriftSignal(drifted=drifted, channels=tuple(channels))
