"""Fault injection: deterministic, seeded disturbances for the testbed.

The paper's production loop assumes a healthy data plane; the dynamic
factors it lists (background traffic, I/O contention) are exactly what
causes link flaps, storage stalls and lost reports on real DTNs.  This
module makes those failure modes first-class: a :class:`FaultSchedule` is a
composable set of timed fault events that the :class:`repro.emulator.Testbed`
consults on every substep of an interval a fault edge can reach (once per
interval otherwise, see :meth:`FaultSchedule.scales_constant`) and the
transfer engine consults on every probe interval.

Fault classes
-------------
* :class:`LinkFlap` — the network path drops for a window.  Real flaps kill
  the established TCP connections, so by default the path stays dead *after*
  the window until the transfer restarts (``requires_restart=True``); an
  unsupervised engine therefore hangs on dead sockets exactly like a real
  tool would.
* :class:`StorageStall` — a storage stage's rate collapses to
  ``factor`` of nominal for a window (I/O contention, RAID rebuild).
  Self-recovering: rates return when the window ends.
* :class:`ReceiverRestart` — the receiver daemon restarts at an instant:
  every byte staged in its buffer is lost and must be re-sent.
* :class:`ProbeDropout` — the throughput probe returns NaN for a window
  (counter scrape failures), exercising controller input sanitation.
* :class:`ReportLoss` — the receiver's RPC buffer report is dropped for a
  window; the sender keeps acting on the last report it received.
* :class:`BandwidthRamp` / :class:`StepChange` — *condition drift*: a
  stage's throughput ramps (or jumps) to a new persistent level — rising
  RTT, a re-route, a new throttle.  Not an outage: the data plane keeps
  flowing at the new operating point, which is exactly the regime the
  :mod:`repro.adapt` drift detectors and bounded corrector target.

Data-plane faults (consumed by :mod:`repro.transfer.integrity`, which maps
byte flows onto checksummed chunks) corrupt *content* without changing any
byte count — exactly the failures only end-to-end verification can catch:

* :class:`DataCorruption` — chunks completing during the window are
  bit-flipped with probability ``rate`` (``site="network"``, in flight);
  with ``site="storage"`` the window's start instant instead flips already
  durable chunks at rest.
* :class:`TornWrite` — at instant ``at`` the write stage tears: the chunk
  partially persisted at that moment keeps its byte count but its tail is
  garbage.
* :class:`SilentTruncation` — at instant ``at`` the destination silently
  loses its most recent ``chunks`` durable chunks (no error is surfaced to
  the transfer tool).

All schedules are deterministic: explicit events need no randomness, and
:meth:`FaultSchedule.random` derives every draw from the given seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Union

import numpy as np

from repro.utils.config import require_in_range, require_non_negative, require_positive


@dataclass(frozen=True)
class FaultWindow:
    """A fault active over ``[start, start + duration)`` of virtual time."""

    start: float
    duration: float

    kind: ClassVar[str] = "fault"

    def __post_init__(self) -> None:
        require_non_negative(self.start, "start")
        require_positive(self.duration, "duration")

    @property
    def end(self) -> float:
        """First instant the window no longer covers."""
        return self.start + self.duration

    def active(self, t: float) -> bool:
        """Whether the fault is live at virtual time ``t``."""
        return self.start <= t < self.end


@dataclass(frozen=True)
class LinkFlap(FaultWindow):
    """Network outage: path rate drops by ``severity`` during the window.

    With ``requires_restart`` (the default) the established connections die
    with the link: the path stays down after the window until the testbed is
    restarted (:meth:`repro.emulator.Testbed.reset` at a later virtual time),
    modelling the hung-socket behaviour of tools without supervision.
    """

    severity: float = 1.0
    requires_restart: bool = True

    kind: ClassVar[str] = "link_flap"

    def __post_init__(self) -> None:
        super().__post_init__()
        require_in_range(self.severity, 0.0, 1.0, "severity")


@dataclass(frozen=True)
class StorageStall(FaultWindow):
    """Storage rate collapse on one stage; recovers when the window ends."""

    stage: str = "read"
    factor: float = 0.0

    kind: ClassVar[str] = "storage_stall"

    def __post_init__(self) -> None:
        super().__post_init__()
        require_in_range(self.factor, 0.0, 1.0, "factor")
        if self.stage not in ("read", "write"):
            raise ValueError(f"stage must be 'read' or 'write', got {self.stage!r}")


@dataclass(frozen=True)
class ProbeDropout(FaultWindow):
    """Throughput probe failure: measurements read NaN during the window."""

    kind: ClassVar[str] = "probe_dropout"


@dataclass(frozen=True)
class ReportLoss(FaultWindow):
    """RPC report loss: receiver buffer reports are dropped during the window."""

    kind: ClassVar[str] = "report_loss"


@dataclass(frozen=True)
class DataCorruption(FaultWindow):
    """Seeded bit-flips on chunk content; byte counts are unaffected.

    ``site="network"`` corrupts in flight: each chunk that completes during
    the window is flipped with probability ``rate``.  ``site="storage"``
    corrupts at rest: at the window's *start* instant, each already durable
    chunk is flipped with probability ``rate`` (the window duration is kept
    for schedule uniformity but the damage is instantaneous).
    """

    rate: float = 0.05
    site: str = "network"

    kind: ClassVar[str] = "data_corruption"

    def __post_init__(self) -> None:
        super().__post_init__()
        require_in_range(self.rate, 0.0, 1.0, "rate")
        if self.site not in ("network", "storage"):
            raise ValueError(f"site must be 'network' or 'storage', got {self.site!r}")


@dataclass(frozen=True)
class TornWrite:
    """Write tear at instant ``at``: the in-flight partial chunk goes bad."""

    at: float

    kind: ClassVar[str] = "torn_write"

    def __post_init__(self) -> None:
        require_non_negative(self.at, "at")


@dataclass(frozen=True)
class SilentTruncation:
    """Destination silently drops its last ``chunks`` durable chunks at ``at``."""

    at: float
    chunks: int = 1

    kind: ClassVar[str] = "silent_truncation"

    def __post_init__(self) -> None:
        require_non_negative(self.at, "at")
        require_positive(self.chunks, "chunks")


_DRIFT_STAGES = ("read", "network", "write")


@dataclass(frozen=True)
class BandwidthRamp(FaultWindow):
    """Slow condition drift: a stage's throughput ramps to ``to_scale``.

    Models the WAN drift the adaptation layer (:mod:`repro.adapt`) must
    survive: over ``[start, end)`` the stage's rate multiplier moves
    *linearly* from 1.0 to ``to_scale``; with ``hold`` (the default) the
    drifted level persists after the window — a new operating point, not an
    outage.  ``to_scale`` may also be > 1 (conditions improving).

    ``per_stream=True`` (default) scales the stage's *per-stream* throughput
    before the capacity cap — the shape of a rising RTT on a TCP path
    (per-stream goodput ~ 1/RTT), where opening more streams can win the
    rate back.  ``per_stream=False`` scales the stage's *aggregate* output
    instead (capacity loss), which no amount of extra concurrency recovers.
    """

    to_scale: float = 0.5
    stage: str = "network"
    hold: bool = True
    per_stream: bool = True

    kind: ClassVar[str] = "bandwidth_ramp"

    def __post_init__(self) -> None:
        super().__post_init__()
        require_positive(self.to_scale, "to_scale")
        if self.stage not in _DRIFT_STAGES:
            raise ValueError(f"stage must be one of {_DRIFT_STAGES}, got {self.stage!r}")

    def scale_at(self, t: float) -> float:
        """The stage multiplier at virtual time ``t``."""
        if t < self.start:
            return 1.0
        if t >= self.end:
            return self.to_scale if self.hold else 1.0
        fraction = (t - self.start) / self.duration
        return 1.0 + (self.to_scale - 1.0) * fraction


@dataclass(frozen=True)
class StepChange(FaultWindow):
    """Abrupt persistent drift: the stage multiplier jumps to ``to_scale``.

    The step lands at ``start`` and *stays* — a route change, a new
    sysadmin throttle, a peering shift.  ``duration`` exists only for
    schedule uniformity (the window marks the change as "active" for
    incident attribution); the multiplier never reverts.  Semantics of
    ``per_stream`` match :class:`BandwidthRamp`.
    """

    to_scale: float = 0.5
    stage: str = "network"
    per_stream: bool = True

    kind: ClassVar[str] = "step_change"

    def __post_init__(self) -> None:
        super().__post_init__()
        require_positive(self.to_scale, "to_scale")
        if self.stage not in _DRIFT_STAGES:
            raise ValueError(f"stage must be one of {_DRIFT_STAGES}, got {self.stage!r}")

    def scale_at(self, t: float) -> float:
        """The stage multiplier at virtual time ``t`` (a held step)."""
        return self.to_scale if t >= self.start else 1.0


@dataclass(frozen=True)
class ReceiverRestart:
    """Receiver daemon restart at instant ``at``: staged bytes are lost."""

    at: float

    kind: ClassVar[str] = "receiver_restart"

    def __post_init__(self) -> None:
        require_non_negative(self.at, "at")


FaultEventSpec = Union[FaultWindow, ReceiverRestart, TornWrite, SilentTruncation]


class FaultSchedule:
    """Composable, deterministic set of fault events on the virtual clock.

    The schedule is stateful in exactly two ways, both driven by the testbed:

    * which :class:`ReceiverRestart` events have already fired, and
    * when the transfer last (re)started — a :class:`LinkFlap` with
      ``requires_restart`` keeps the path dead after its window until a
      restart happens at or after the window's end.

    :meth:`notify_restart` re-arms both against the new start time, so the
    same schedule object can drive repeated runs (fresh or resumed) and stay
    deterministic.
    """

    def __init__(self, events: FaultEventSpec | list[FaultEventSpec] = ()) -> None:
        if isinstance(events, (FaultWindow, ReceiverRestart, TornWrite, SilentTruncation)):
            events = [events]
        self.events: tuple[FaultEventSpec, ...] = tuple(events)
        self._restarts = [e for e in self.events if isinstance(e, ReceiverRestart)]
        self._windows = [e for e in self.events if isinstance(e, FaultWindow)]
        #: Condition-drift events (ramps and steps); split per application
        #: point so the testbed pays nothing when a schedule has none.
        drifts = [e for e in self.events if isinstance(e, (BandwidthRamp, StepChange))]
        self._tpt_drifts = [e for e in drifts if e.per_stream]
        self._aggregate_drifts = [e for e in drifts if not e.per_stream]
        #: Where :meth:`storage_scale` and :meth:`network_scale` can change,
        #: as closed ``(lo, hi)`` spans: each flap or stall edge is a point
        #: (a dead link's repair waits for a restart, which no substep
        #: makes), an aggregate step its start, an aggregate ramp its whole
        #: window.  :meth:`scales_constant` tests intervals against them.
        self._scale_spans: list[tuple[float, float]] = [
            (edge, edge)
            for e in self._windows
            if isinstance(e, (LinkFlap, StorageStall))
            for edge in (e.start, e.end)
        ] + [
            (e.start, e.end if isinstance(e, BandwidthRamp) else e.start)
            for e in self._aggregate_drifts
        ]
        #: Fire-once data-plane instants: torn writes, silent truncations, and
        #: at-rest corruption (which strikes at its window's start instant).
        self._data_instants: list[tuple[float, FaultEventSpec]] = sorted(
            [(e.at, e) for e in self.events if isinstance(e, (TornWrite, SilentTruncation))]
            + [
                (e.start, e)
                for e in self._windows
                if isinstance(e, DataCorruption) and e.site == "storage"
            ],
            key=lambda pair: pair[0],
        )
        self._last_restart = 0.0
        self._fired: set[int] = set()
        self._data_fired: set[int] = set()

    # ---------------------------------------------------------------- queries
    def network_scale(self, t: float) -> float:
        """Multiplier on the network path rate at virtual time ``t``."""
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
        """Multiplier on the ``stage`` storage rate at virtual time ``t``."""
        scale = 1.0
        for event in self._windows:
            if isinstance(event, StorageStall) and event.stage == stage and event.active(t):
                scale *= event.factor
        for event in self._aggregate_drifts:
            if event.stage == stage:
                scale *= event.scale_at(t)
        return scale

    def scales_constant(self, t0: float, t1: float) -> bool:
        """Whether every instant in ``[t0, t1]`` sees the scales ``t0`` sees.

        True when neither :meth:`storage_scale` nor :meth:`network_scale`
        can change over the range (no flap or stall edge in ``(t0, t1]``,
        no aggregate drift stepping there or ramping across it) and no
        un-fired :class:`ReceiverRestart` lies in ``[t0, t1]``, so
        :meth:`take_receiver_restarts` would fire nothing there either.
        The testbed then reads the scales once per interval instead of once
        per substep.
        """
        for lo, hi in self._scale_spans:
            if t0 < hi and lo <= t1:
                return False
        fired = self._fired
        for i, event in enumerate(self._restarts):
            if t0 <= event.at <= t1 and i not in fired:
                return False
        return True

    @property
    def has_tpt_drift(self) -> bool:
        """Whether any per-stream drift event exists (testbed fast-path gate)."""
        return bool(self._tpt_drifts)

    def tpt_scale(self, stage: str, t: float) -> float:
        """Per-stream throughput multiplier for ``stage`` at virtual time ``t``.

        Only per-stream drift events (:class:`BandwidthRamp` /
        :class:`StepChange` with ``per_stream=True``) contribute; the
        multiplier applies *before* the stage's capacity cap, so extra
        concurrency can compensate — the lever the adaptation layer pulls.
        """
        scale = 1.0
        for event in self._tpt_drifts:
            if event.stage == stage:
                scale *= event.scale_at(t)
        return scale

    def probe_dropout(self, t: float) -> bool:
        """Whether the throughput probe is down at virtual time ``t``."""
        return any(
            isinstance(e, ProbeDropout) and e.active(t) for e in self._windows
        )

    def report_lost(self, t: float) -> bool:
        """Whether the receiver's RPC report is dropped at virtual time ``t``."""
        return any(isinstance(e, ReportLoss) and e.active(t) for e in self._windows)

    def take_receiver_restarts(self, t0: float, t1: float) -> int:
        """Fire (once each) the receiver restarts scheduled in ``[t0, t1)``."""
        count = 0
        for i, event in enumerate(self._restarts):
            if i not in self._fired and t0 <= event.at < t1:
                self._fired.add(i)
                count += 1
        return count

    # ------------------------------------------------------- data-plane faults
    def corruption_rate(self, t: float) -> float:
        """Probability a chunk completing at ``t`` is corrupted in flight.

        Overlapping in-flight :class:`DataCorruption` windows compose as
        independent corruption opportunities: ``1 - prod(1 - rate_i)``.
        """
        survival = 1.0
        for event in self._windows:
            if isinstance(event, DataCorruption) and event.site == "network" and event.active(t):
                survival *= 1.0 - event.rate
        return 1.0 - survival

    def take_data_events(self, t0: float, t1: float) -> list[FaultEventSpec]:
        """Fire (once each) the data-plane instants scheduled in ``[t0, t1)``.

        Returns the fired events in time order: :class:`TornWrite`,
        :class:`SilentTruncation` and at-rest :class:`DataCorruption`
        (striking at its window start).  The integrity layer
        (:class:`repro.transfer.integrity.DestinationLedger`) consumes these
        while mapping byte flows onto chunks.
        """
        fired: list[FaultEventSpec] = []
        for i, (at, event) in enumerate(self._data_instants):
            if i not in self._data_fired and t0 <= at < t1:
                self._data_fired.add(i)
                fired.append(event)
        return fired

    def active(self, t: float) -> list[FaultEventSpec]:
        """Window faults live at ``t`` — including dead-link flap aftermath."""
        live: list[FaultEventSpec] = []
        for event in self._windows:
            if event.active(t):
                live.append(event)
            elif (
                isinstance(event, LinkFlap)
                and event.requires_restart
                and t >= event.end
                and self._last_restart < event.end
            ):
                live.append(event)
        return live

    def active_kinds(self, t: float) -> tuple[str, ...]:
        """Kinds of the faults live at ``t`` (sorted, de-duplicated)."""
        return tuple(sorted({e.kind for e in self.active(t)}))

    # ----------------------------------------------------------------- state
    def notify_restart(self, t: float) -> None:
        """The transfer (re)started at virtual time ``t``.

        Connection-killing flaps whose window ended by ``t`` are repaired,
        and receiver restarts strictly before ``t`` are considered already
        fired (they belong to the earlier part of the timeline).
        """
        self._last_restart = float(t)
        self._fired = {i for i, e in enumerate(self._restarts) if e.at < t}
        self._data_fired = {i for i, (at, _) in enumerate(self._data_instants) if at < t}

    # ------------------------------------------------------------- factories
    @classmethod
    def random(
        cls,
        seed: int,
        *,
        horizon: float,
        kinds: tuple[str, ...] = (
            "link_flap",
            "storage_stall",
            "receiver_restart",
            "probe_dropout",
            "report_loss",
        ),
        events_per_kind: int = 1,
        mean_duration: float = 10.0,
    ) -> "FaultSchedule":
        """Seeded random schedule: same seed → identical events, always."""
        require_positive(horizon, "horizon")
        require_positive(mean_duration, "mean_duration")
        rng = np.random.default_rng(seed)
        events: list[FaultEventSpec] = []
        for kind in kinds:
            for _ in range(events_per_kind):
                start = float(rng.uniform(0.05, 0.7) * horizon)
                duration = 1.0 + float(rng.exponential(mean_duration))
                if kind == "link_flap":
                    events.append(LinkFlap(start, duration))
                elif kind == "storage_stall":
                    stage = "read" if rng.random() < 0.5 else "write"
                    events.append(StorageStall(start, duration, stage=stage))
                elif kind == "receiver_restart":
                    events.append(ReceiverRestart(at=start))
                elif kind == "probe_dropout":
                    events.append(ProbeDropout(start, duration))
                elif kind == "report_loss":
                    events.append(ReportLoss(start, duration))
                elif kind == "data_corruption":
                    site = "network" if rng.random() < 0.75 else "storage"
                    rate = float(rng.uniform(0.05, 0.35))
                    events.append(DataCorruption(start, duration, rate=rate, site=site))
                elif kind == "torn_write":
                    events.append(TornWrite(at=start))
                elif kind == "silent_truncation":
                    events.append(SilentTruncation(at=start, chunks=1 + int(rng.integers(3))))
                elif kind == "bandwidth_ramp":
                    stage = ("read", "network", "write")[int(rng.integers(3))]
                    events.append(
                        BandwidthRamp(
                            start, duration,
                            to_scale=float(rng.uniform(0.3, 0.7)), stage=stage,
                        )
                    )
                elif kind == "step_change":
                    stage = ("read", "network", "write")[int(rng.integers(3))]
                    events.append(
                        StepChange(
                            start, duration,
                            to_scale=float(rng.uniform(0.3, 0.7)), stage=stage,
                        )
                    )
                else:
                    raise ValueError(f"unknown fault kind {kind!r}")
        events.sort(key=lambda e: e.start if isinstance(e, FaultWindow) else e.at)
        return cls(events)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultSchedule({list(self.events)!r})"
