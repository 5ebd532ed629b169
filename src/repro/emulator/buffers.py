"""Staging buffer model (the application-level tmpfs directory on each DTN).

Throughout the paper "buffer" means the staging directory (e.g. /dev/shm)
where file chunks rest between stages — not kernel TCP buffers.  The model
is a simple bounded byte store; boundedness is what couples the three
stages (Fig. 1).  :meth:`repro.emulator.Testbed.advance` moves the bytes,
holding both buffers' usage in locals across its substep loop.
"""

from __future__ import annotations

from repro.utils.config import require_non_negative, require_positive
from repro.utils.errors import SimulationError


class StagingBuffer:
    """Bounded byte store: a capacity and the bytes currently held."""

    def __init__(self, capacity: float, usage: float = 0.0, name: str = "") -> None:
        require_positive(capacity, "capacity")
        require_non_negative(usage, "usage")
        if usage > capacity:
            raise SimulationError(f"initial usage {usage} exceeds capacity {capacity}")
        self.capacity = float(capacity)
        self._usage = float(usage)
        self.name = name

    @property
    def usage(self) -> float:
        """Bytes currently stored."""
        return self._usage

    @property
    def free(self) -> float:
        """Remaining capacity in bytes."""
        return self.capacity - self._usage

    @property
    def fill_fraction(self) -> float:
        """Occupancy as a fraction of capacity."""
        return self._usage / self.capacity

    def reset(self, usage: float = 0.0) -> None:
        """Set the occupancy directly (start of a run)."""
        if not (0.0 <= usage <= self.capacity):
            raise SimulationError(f"usage {usage} out of [0, {self.capacity}]")
        self._usage = float(usage)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"StagingBuffer({self.name!r}, {self._usage:.0f}/{self.capacity:.0f} B)"
