"""Network path model: per-connection throttle, capacity, slow-start ramp,
congestion collapse and background traffic.

Captures the behaviours the paper's motivation section attributes to
production networks:

* sysadmins throttle per-connection speed for fairness → per-stream cap;
* the path has finite capacity shared with background traffic;
* pushing far more streams than the capacity supports causes losses and
  retransmissions — aggregate goodput *degrades* past the knee;
* new TCP connections ramp up (slow start), so concurrency changes take a
  couple of seconds to take full effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.emulator.noise import BackgroundTraffic
from repro.utils.config import require_non_negative, require_positive


@dataclass(frozen=True)
class NetworkConfig:
    """Static description of the path between the two DTNs.

    Attributes
    ----------
    tpt:
        Per-connection throughput cap in Mbps (throttle / fair-share).
    capacity:
        Path capacity in Mbps.
    degradation_alpha:
        Congestion penalty strength past the knee.
    degradation_knee:
        Streams where goodput starts to degrade (``None`` → saturation + 4).
    ramp_time:
        Seconds a fresh connection needs to reach full rate (slow start).
        0 disables ramping.
    per_file_cost:
        Per-file handshake cost in seconds, applied via dataset efficiency.
    """

    tpt: float = 100.0
    capacity: float = 1000.0
    degradation_alpha: float = 0.002
    degradation_knee: int | None = None
    ramp_time: float = 2.0
    per_file_cost: float = 0.001
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        require_positive(self.tpt, "tpt")
        require_positive(self.capacity, "capacity")
        require_non_negative(self.degradation_alpha, "degradation_alpha")
        require_non_negative(self.ramp_time, "ramp_time")
        require_non_negative(self.per_file_cost, "per_file_cost")

    @property
    def knee(self) -> int:
        """Stream count where congestion degradation starts."""
        if self.degradation_knee is not None:
            return self.degradation_knee
        return int(math.ceil(self.capacity / self.tpt)) + 4


class NetworkPath:
    """Fluid-rate model of the wide-area path, with connection ramp state.

    The ramp is tracked as an exponential moving "established concurrency":
    when the requested stream count jumps from 5 to 20, the effective count
    rises toward 20 with time constant ``ramp_time`` (closing connections
    is immediate).  :meth:`repro.emulator.Testbed.advance` moves it, once
    per substep.
    """

    def __init__(self, config: NetworkConfig, background: BackgroundTraffic | None = None) -> None:
        self.config = config
        self.background = background or BackgroundTraffic(0.0)
        self._effective_streams = 0.0

    @property
    def effective_streams(self) -> float:
        """Current ramped-up stream count (may lag the requested count)."""
        return self._effective_streams

    def reset(self) -> None:
        """Drop all connection state."""
        self._effective_streams = 0.0
        self.background.reset()

    def congestion_efficiency(self, streams: float) -> float:
        """Goodput efficiency in ``(0, 1]`` for ``streams`` concurrent flows."""
        excess = max(0.0, streams - self.config.knee)
        if excess == 0.0 or self.config.degradation_alpha == 0.0:
            return 1.0
        return 1.0 / (1.0 + self.config.degradation_alpha * excess**1.5)

    def aggregate_rate(
        self, streams: float, t: float, *, file_efficiency: float = 1.0, tpt_scale: float = 1.0
    ) -> float:
        """Aggregate goodput (Mbps) of ``streams`` flows at virtual time ``t``.

        ``tpt_scale`` is the per-stream drift multiplier
        (:meth:`repro.emulator.faults.FaultSchedule.tpt_scale`) — it reduces
        per-stream speed before the capacity cap, so adding streams can win
        back goodput.  The congestion knee stays a config property: drift
        changes per-stream speed, not the path's fair-share breakdown point
        (a deliberate simplification).  :meth:`repro.emulator.Testbed.advance`
        inlines this computation in its substep kernel; the emulator's
        oracle tests hold the two to the same bits.
        """
        if streams <= 0.0:
            return 0.0
        available = max(0.0, self.config.capacity - self.background.level_at(t))
        raw = min(streams * self.config.tpt * tpt_scale, available)
        return raw * self.congestion_efficiency(streams) * file_efficiency
