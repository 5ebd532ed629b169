"""Reference oracles: fault-schedule queries and the thread clamp before their fast paths.

:class:`OracleFaultSchedule` answers every per-interval and per-chunk
query by filtering the whole window list with ``isinstance``, as
:class:`repro.emulator.faults.FaultSchedule` did before it split its
windows by kind at construction.  :func:`clamp_threads` is
``Testbed._clamp_threads`` before it passed an in-range int triple through
unchanged.  The production code must return and raise what these do.
"""

from __future__ import annotations

from repro.emulator.faults import (
    DataCorruption,
    FaultSchedule,
    LinkFlap,
    ProbeDropout,
    ReportLoss,
    StorageStall,
)
from repro.utils.errors import SimulationError


class OracleFaultSchedule(FaultSchedule):
    """A schedule whose queries filter every window by type on every call."""

    def network_scale(self, t: float) -> float:
        scale = 1.0
        for event in self._windows:
            if not isinstance(event, LinkFlap):
                continue
            down = event.active(t) or (
                event.requires_restart and t >= event.end and self._last_restart < event.end
            )
            if down:
                scale *= 1.0 - event.severity
        for event in self._aggregate_drifts:
            if event.stage == "network":
                scale *= event.scale_at(t)
        return scale

    def storage_scale(self, stage: str, t: float) -> float:
        scale = 1.0
        for event in self._windows:
            if isinstance(event, StorageStall) and event.stage == stage and event.active(t):
                scale *= event.factor
        for event in self._aggregate_drifts:
            if event.stage == stage:
                scale *= event.scale_at(t)
        return scale

    def probe_dropout(self, t: float) -> bool:
        return any(
            isinstance(e, ProbeDropout) and e.active(t) for e in self._windows
        )

    def report_lost(self, t: float) -> bool:
        return any(isinstance(e, ReportLoss) and e.active(t) for e in self._windows)

    def corruption_rate(self, t: float) -> float:
        survival = 1.0
        for event in self._windows:
            if isinstance(event, DataCorruption) and event.site == "network" and event.active(t):
                survival *= 1.0 - event.rate
        return 1.0 - survival


def clamp_threads(threads, n_max) -> tuple[int, int, int]:
    """Round and clamp each thread count into ``[1, n_max]``; three or raise."""
    clamped = tuple(int(min(n_max, max(1, round(float(n))))) for n in threads)
    if len(clamped) != 3:
        raise SimulationError(f"expected 3 thread counts, got {threads!r}")
    return clamped  # type: ignore[return-value]
