"""The Testbed: two DTNs and a network path, advanced on a virtual clock.

This is the evaluation-side "real environment" (Fig. 2 of the paper).  A
:class:`Testbed` composes a source storage device, a sender staging buffer,
a network path, a receiver staging buffer and a destination storage device.
:meth:`Testbed.advance` integrates the coupled fluid flows over a window
(default one second, the paper's probe interval) with small substeps so the
buffer coupling of Fig. 1 is resolved faithfully:

* read fills the sender buffer, but only while it has space (and while the
  dataset still has unread bytes);
* the network drains the sender buffer into the receiver buffer, limited by
  path goodput, connection ramp-up and background traffic;
* write drains the receiver buffer to the destination filesystem.

Compared to the Algorithm-1 training simulator, the emulator adds slow-start
ramping, over-concurrency degradation, per-file costs, background traffic
and measurement noise — the sim-to-real gap the trained policy must survive.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from repro.emulator.buffers import StagingBuffer
from repro.emulator.faults import FaultSchedule
from repro.emulator.network import NetworkConfig, NetworkPath
from repro.emulator.noise import BackgroundTraffic, MultiplicativeNoise
from repro.emulator.storage import StorageConfig, StorageDevice
from repro.utils.config import require_non_negative, require_positive
from repro.utils.errors import SimulationError
from repro.utils.rng import as_generator
from repro.utils.units import GiB, bytes_per_sec_to_mbps, mbps_to_bytes_per_sec


#: The noise factors of a testbed whose ``noise_sigma`` is zero.
_NO_NOISE = (1.0, 1.0, 1.0)


@dataclass(frozen=True)
class TestbedConfig:
    """Full description of an emulated testbed pair.

    ``noise_sigma`` controls per-stage AR(1) throughput jitter;
    ``background_peak`` enables competing traffic on the path.  Both default
    to 0 so figure-style experiments are deterministic.
    """

    __test__ = False  # not a pytest test class despite the name

    source: StorageConfig = field(default_factory=StorageConfig)
    destination: StorageConfig = field(default_factory=StorageConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    sender_buffer_capacity: float = 4.0 * GiB
    receiver_buffer_capacity: float = 4.0 * GiB
    max_threads: int = 30
    substep: float = 0.05
    noise_sigma: float = 0.0
    background_peak: float = 0.0
    background_holding: float = 30.0
    label: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        require_positive(self.sender_buffer_capacity, "sender_buffer_capacity")
        require_positive(self.receiver_buffer_capacity, "receiver_buffer_capacity")
        require_positive(self.substep, "substep")
        require_positive(self.max_threads, "max_threads")
        require_non_negative(self.noise_sigma, "noise_sigma")
        require_non_negative(self.background_peak, "background_peak")

    def optimal_threads(self) -> tuple[int, int, int]:
        """Ideal ``(n_r*, n_n*, n_w*)`` for the configured bottleneck."""
        bottleneck = min(self.source.bandwidth, self.network.capacity, self.destination.bandwidth)
        triple = (
            math.ceil(bottleneck / self.source.tpt),
            math.ceil(bottleneck / self.network.tpt),
            math.ceil(bottleneck / self.destination.tpt),
        )
        return tuple(min(self.max_threads, max(1, n)) for n in triple)  # type: ignore[return-value]

    @property
    def bottleneck_bandwidth(self) -> float:
        """End-to-end ceiling in Mbps."""
        return min(self.source.bandwidth, self.network.capacity, self.destination.bandwidth)


@dataclass(frozen=True, init=False)
class StageFlows:
    """What happened on the testbed during one :meth:`Testbed.advance` window.

    Frozen, compared and replaced like any dataclass; the constructor fills
    the instance dict in one update instead of one frozen ``__setattr__``
    per field, since every interval builds one.
    """

    duration: float
    bytes_read: float
    bytes_networked: float
    bytes_written: float
    throughput_read: float
    throughput_network: float
    throughput_write: float
    sender_usage: float
    receiver_usage: float
    sender_free: float
    receiver_free: float
    threads: tuple[int, int, int]
    effective_streams: float

    def __init__(
        self,
        duration: float,
        bytes_read: float,
        bytes_networked: float,
        bytes_written: float,
        throughput_read: float,
        throughput_network: float,
        throughput_write: float,
        sender_usage: float,
        receiver_usage: float,
        sender_free: float,
        receiver_free: float,
        threads: tuple[int, int, int],
        effective_streams: float,
    ) -> None:
        self.__dict__.update(
            duration=duration,
            bytes_read=bytes_read,
            bytes_networked=bytes_networked,
            bytes_written=bytes_written,
            throughput_read=throughput_read,
            throughput_network=throughput_network,
            throughput_write=throughput_write,
            sender_usage=sender_usage,
            receiver_usage=receiver_usage,
            sender_free=sender_free,
            receiver_free=receiver_free,
            threads=threads,
            effective_streams=effective_streams,
        )

    @property
    def throughputs(self) -> tuple[float, float, float]:
        """``(t_r, t_n, t_w)`` in Mbps."""
        return (self.throughput_read, self.throughput_network, self.throughput_write)


def threads_in_range(threads, max_threads) -> bool:
    """Whether ``threads`` is a tuple of three ``int`` in ``[1, max_threads]``.

    Such a triple is what every thread-count clamp returns for it: rounding
    an int changes nothing, and the rails do not bind.  Callers return it
    as is and keep their general path for anything else (floats, numpy
    scalars, other lengths, other sequence types).
    """
    if type(threads) is not tuple or len(threads) != 3:
        return False
    read, network, write = threads
    return (
        type(read) is int
        and type(network) is int
        and type(write) is int
        and 1 <= read <= max_threads
        and 1 <= network <= max_threads
        and 1 <= write <= max_threads
    )


class Testbed:
    """Mutable emulator state over a :class:`TestbedConfig`."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        config: TestbedConfig,
        rng: int | np.random.Generator | None = None,
        faults: FaultSchedule | None = None,
    ) -> None:
        self.config = config
        self.faults = faults
        rng = as_generator(rng)
        self._source = StorageDevice(config.source)
        self._destination = StorageDevice(config.destination)
        background = BackgroundTraffic(
            config.background_peak,
            config.background_holding,
            rng=np.random.default_rng(rng.integers(2**63)),
        )
        self._network = NetworkPath(config.network, background)
        self.sender_buffer = StagingBuffer(config.sender_buffer_capacity, name="sender")
        self.receiver_buffer = StagingBuffer(config.receiver_buffer_capacity, name="receiver")
        self._noise = [
            MultiplicativeNoise(config.noise_sigma, rng=np.random.default_rng(rng.integers(2**63)))
            for _ in range(3)
        ]
        self._now = 0.0
        self.total_read = 0.0
        self.total_networked = 0.0
        self.total_written = 0.0
        #: External bytes/s ceiling on the network stage.  This belongs to
        #: an *allocator* (the fleet scheduler's fair-share slice), not to
        #: the testbed's own state, so it survives :meth:`reset`.
        self.rate_cap = float("inf")

    # ------------------------------------------------------------- properties
    @property
    def now(self) -> float:
        """Virtual time in seconds."""
        return self._now

    @property
    def source(self) -> StorageDevice:
        """Source storage device."""
        return self._source

    @property
    def destination(self) -> StorageDevice:
        """Destination storage device."""
        return self._destination

    @property
    def network(self) -> NetworkPath:
        """The wide-area path."""
        return self._network

    # -------------------------------------------------------- dynamic changes
    def set_stage_tpt(self, stage: str, tpt: float) -> None:
        """Change a per-thread throttle mid-run (sysadmin action / contention).

        ``stage`` is ``"read"``, ``"network"`` or ``"write"``.
        """
        require_positive(tpt, "tpt")
        if stage == "read":
            self._source = StorageDevice(dataclasses.replace(self.config.source, tpt=tpt))
        elif stage == "write":
            self._destination = StorageDevice(dataclasses.replace(self.config.destination, tpt=tpt))
        elif stage == "network":
            cfg = dataclasses.replace(self.config.network, tpt=tpt)
            path = NetworkPath(cfg, self._network.background)
            path._effective_streams = self._network.effective_streams
            self._network = path
        else:
            raise SimulationError(f"unknown stage {stage!r}")

    def set_rate_cap(self, bytes_per_sec: float | None) -> None:
        """Cap the network stage at ``bytes_per_sec`` (``None`` = uncapped).

        The fleet scheduler calls this before each scheduling quantum to
        enforce its fair-share bandwidth allocation; the cap applies on top
        of fault scaling and noise, and persists across :meth:`reset`
        because a supervised restart does not change the tenant's share.
        """
        cap = float("inf") if bytes_per_sec is None else float(bytes_per_sec)
        require_non_negative(cap, "rate_cap")
        self.rate_cap = cap

    def reset(self, start_time: float = 0.0) -> None:
        """Restart the testbed with empty buffers at virtual time ``start_time``.

        A non-zero ``start_time`` models a supervised *restart* of the
        transfer mid-timeline (checkpoint resume): buffers and connections
        are rebuilt from scratch, but the clock — and therefore the fault
        schedule and background-traffic processes — keeps its place.
        Restarting also repairs connection-killing faults whose window has
        passed (see :meth:`repro.emulator.faults.FaultSchedule.notify_restart`).
        """
        require_non_negative(start_time, "start_time")
        self.sender_buffer.reset()
        self.receiver_buffer.reset()
        self._network.reset()
        for noise in self._noise:
            noise.reset()
        self._now = float(start_time)
        self.total_read = 0.0
        self.total_networked = 0.0
        self.total_written = 0.0
        if self.faults is not None:
            self.faults.notify_restart(self._now)

    # ------------------------------------------------------------------- step
    def _clamp_threads(self, threads) -> tuple[int, int, int]:
        n_max = self.config.max_threads
        if threads_in_range(threads, n_max):
            return threads  # what the rounding clamp below returns, unchanged
        clamped = tuple(int(min(n_max, max(1, round(float(n))))) for n in threads)
        if len(clamped) != 3:
            raise SimulationError(f"expected 3 thread counts, got {threads!r}")
        return clamped  # type: ignore[return-value]

    def advance(
        self,
        threads,
        duration: float = 1.0,
        *,
        read_available: float = float("inf"),
        file_efficiency: tuple[float, float, float] = (1.0, 1.0, 1.0),
    ) -> StageFlows:
        """Advance the testbed by ``duration`` seconds under ``threads``.

        ``read_available`` caps how many more bytes the read stage may pull
        from the source dataset (the transfer engine passes the unread
        remainder).  ``file_efficiency`` is the per-stage dataset factor for
        per-file overheads.

        The substep loop is one kernel over locals: the buffer usages, the
        ramped stream count and the clock are read once, and written back
        once (also when a negative flow raises).  It performs the float
        operations of the per-substep method calls it replaces, in their
        order (a value whose inputs are fixed for the interval, such as a
        storage stage's bytes per substep, is computed once, and the network
        rate once per stream count):
        ``min``/``max`` become their exact ``b if b < a else a`` expansions,
        so NaN and signed zeros behave as before.
        """
        require_positive(duration, "duration")
        n = self._clamp_threads(threads)
        # A zero-sigma process steps to 1.0 and keeps no state.
        noise = (
            [proc.step() for proc in self._noise]
            if self.config.noise_sigma != 0.0
            else _NO_NOISE
        )

        dt = min(self.config.substep, duration)
        steps = max(1, int(round(duration / dt)))
        dt = duration / steps

        read_rate = self._source.aggregate_rate(n[0], file_efficiency=file_efficiency[0])
        read_rate = mbps_to_bytes_per_sec(read_rate * noise[0])
        write_rate = self._destination.aggregate_rate(n[2], file_efficiency=file_efficiency[2])
        write_rate = mbps_to_bytes_per_sec(write_rate * noise[2])

        now = self._now
        faults = self.faults
        # Per-stream drift changes the tpt feeding min(n·tpt, cap), so the
        # read/write rates are then recomputed each substep.
        tpt_drift = faults is not None and faults.has_tpt_drift
        f_read = f_net = f_write = 1.0
        # Fault scales are sampled per substep so windows that open or close
        # mid-interval take effect at substep resolution, unless the
        # schedule proves them constant over the whole interval.  The slack
        # covers the rounding the accumulated substep clock can gather.
        sampled = False
        if faults is not None:
            t1 = now + duration
            if not tpt_drift and faults.scales_constant(
                now, t1 + 4.0 * steps * math.ulp(t1)
            ):
                f_read = faults.storage_scale("read", now)
                f_write = faults.storage_scale("write", now)
                f_net = faults.network_scale(now)
            else:
                sampled = True
        read_step = read_rate * f_read * dt
        write_step = write_rate * f_write * dt

        # The network stage: NetworkPath's ramp and aggregate rate, inlined.
        path = self._network
        net = path.config
        requested = float(n[1])
        instant = net.ramp_time <= 0.0
        ramp_frac = 1.0 if instant else dt / net.ramp_time
        ramp_frac = ramp_frac if ramp_frac < 1.0 else 1.0  # min(1.0, dt / ramp_time)
        half_dt = 0.5 * dt
        net_tpt, knee, alpha = net.tpt, net.knee, net.degradation_alpha
        # Without background traffic the level is 0.0 at every instant.
        level_at = path.background.level_at if path.background.peak != 0.0 else None
        spare = net.capacity - 0.0
        available = spare if spare > 0.0 else 0.0
        fe_net, noise_net, rate_cap = file_efficiency[1], noise[1], self.rate_cap
        net_tpt_scale = 1.0
        # Unless the scales are sampled or background traffic moves the
        # spare capacity, the network rate is a function of the stream
        # count alone: it is computed again only when the ramp moved it.
        rate_varies = sampled or level_at is not None
        rate_streams = None  # the stream count ``rate`` was computed for
        rate = 0.0

        sender, receiver = self.sender_buffer, self.receiver_buffer
        cap_s, cap_r = sender.capacity, receiver.capacity
        us, ur = sender._usage, receiver._usage
        streams = path._effective_streams
        read_bytes = networked_bytes = written_bytes = 0.0
        remaining_read = max(0.0, read_available)
        try:
            for _ in range(steps):
                if sampled:
                    f_read = faults.storage_scale("read", now)
                    f_write = faults.storage_scale("write", now)
                    f_net = faults.network_scale(now)
                    if faults.take_receiver_restarts(now, now + dt):
                        # Receiver daemon restart: staged-but-unwritten bytes
                        # die with it and must be re-sent by a supervised retry.
                        ur = 0.0
                    if tpt_drift:
                        read_rate = self._source.aggregate_rate(
                            n[0],
                            file_efficiency=file_efficiency[0],
                            tpt_scale=faults.tpt_scale("read", now),
                        )
                        read_rate = mbps_to_bytes_per_sec(read_rate * noise[0])
                        write_rate = self._destination.aggregate_rate(
                            n[2],
                            file_efficiency=file_efficiency[2],
                            tpt_scale=faults.tpt_scale("write", now),
                        )
                        write_rate = mbps_to_bytes_per_sec(write_rate * noise[2])
                        net_tpt_scale = faults.tpt_scale("network", now)
                    read_step = read_rate * f_read * dt
                    write_step = write_rate * f_write * dt

                # Closing connections is immediate; opening ramps exponentially.
                if instant or requested <= streams:
                    streams = requested
                else:
                    ramped = streams + (requested - streams) * ramp_frac + half_dt
                    streams = ramped if ramped < requested else requested
                if rate_varies or streams != rate_streams:
                    rate_streams = streams
                    if streams <= 0.0:
                        rate = 0.0
                    else:
                        if level_at is not None:
                            spare = net.capacity - level_at(now)
                            available = spare if spare > 0.0 else 0.0
                        rate = streams * net_tpt * net_tpt_scale
                        if available < rate:
                            rate = available
                        excess = streams - knee
                        if excess > 0.0 and alpha != 0.0:
                            rate = rate * (1.0 / (1.0 + alpha * excess**1.5)) * fe_net
                        else:
                            rate = rate * fe_net
                    rate = rate * noise_net * 1e6 / 8.0 * f_net
                    if rate_cap < rate:
                        rate = rate_cap

                # Desired amounts from the state at substep start (no
                # in-substep pass-through: a byte must rest in the buffer at
                # least one step).
                want_read = read_step
                if remaining_read < want_read:
                    want_read = remaining_read
                free = cap_s - us
                if free < want_read:
                    want_read = free
                want_net = rate * dt
                if us < want_net:
                    want_net = us
                free = cap_r - ur
                if free < want_net:
                    want_net = free
                want_write = write_step
                if ur < want_write:
                    want_write = ur

                # Withdraw the write, withdraw the network move, deposit it,
                # deposit the read.  Sub-byte negative dust from float
                # accumulation counts as zero; anything materially negative
                # is a logic error.
                if want_write < -1e-3:
                    raise SimulationError(f"cannot withdraw negative bytes: {want_write}")
                moved_write = 0.0 if 0.0 > want_write else want_write
                if ur < moved_write:
                    moved_write = ur
                ur -= moved_write
                if want_net < -1e-3:
                    raise SimulationError(f"cannot withdraw negative bytes: {want_net}")
                moved_net = 0.0 if 0.0 > want_net else want_net
                if us < moved_net:
                    moved_net = us
                us -= moved_net
                if moved_net < -1e-3:
                    raise SimulationError(f"cannot deposit negative bytes: {moved_net}")
                landed = 0.0 if 0.0 > moved_net else moved_net
                free = cap_r - ur
                if free < landed:
                    landed = free
                ur += landed
                if want_read < -1e-3:
                    raise SimulationError(f"cannot deposit negative bytes: {want_read}")
                moved_read = 0.0 if 0.0 > want_read else want_read
                free = cap_s - us
                if free < moved_read:
                    moved_read = free
                us += moved_read

                read_bytes += moved_read
                networked_bytes += moved_net
                written_bytes += moved_write
                left = remaining_read - moved_read
                remaining_read = left if left > 0.0 else 0.0
                now += dt
        finally:
            sender._usage = us
            receiver._usage = ur
            path._effective_streams = streams
            self._now = now

        self.total_read += read_bytes
        self.total_networked += networked_bytes
        self.total_written += written_bytes

        return StageFlows(
            duration=duration,
            bytes_read=read_bytes,
            bytes_networked=networked_bytes,
            bytes_written=written_bytes,
            throughput_read=bytes_per_sec_to_mbps(read_bytes / duration),
            throughput_network=bytes_per_sec_to_mbps(networked_bytes / duration),
            throughput_write=bytes_per_sec_to_mbps(written_bytes / duration),
            sender_usage=us,
            receiver_usage=ur,
            sender_free=cap_s - us,
            receiver_free=cap_r - ur,
            threads=n,
            effective_streams=streams,
        )
