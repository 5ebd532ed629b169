"""Reference oracle: the testbed's per-substep loop, one method call per step.

This is :meth:`repro.emulator.Testbed.advance` as it was written before
the loop became one kernel over locals: every substep deposits into and
withdraws from the :class:`~repro.emulator.buffers.StagingBuffer` objects,
advances the :class:`~repro.emulator.network.NetworkPath` ramp, asks the
path for its aggregate rate and samples the three fault scales.  The
kernel must return equal :class:`~repro.emulator.testbed.StageFlows` and
leave an equal testbed behind, bit for bit.

:func:`deposit`, :func:`withdraw` and :func:`advance_ramp` are the buffer
and ramp methods the loop called; the kernel inlines them, so they live
here with the loop.
"""

from __future__ import annotations

from repro.emulator.buffers import StagingBuffer
from repro.emulator.network import NetworkPath
from repro.emulator.testbed import StageFlows, Testbed
from repro.utils.config import require_positive
from repro.utils.errors import SimulationError
from repro.utils.units import bytes_per_sec_to_mbps, mbps_to_bytes_per_sec


def deposit(buffer: StagingBuffer, n_bytes: float) -> float:
    """Add up to ``n_bytes`` to ``buffer``; returns the amount actually stored.

    Sub-byte negative dust from float accumulation upstream is treated
    as zero; anything materially negative is a logic error.
    """
    if n_bytes < -1e-3:
        raise SimulationError(f"cannot deposit negative bytes: {n_bytes}")
    amount = min(max(n_bytes, 0.0), buffer.free)
    buffer._usage += amount
    return amount


def withdraw(buffer: StagingBuffer, n_bytes: float) -> float:
    """Remove up to ``n_bytes`` from ``buffer``; returns the amount removed."""
    if n_bytes < -1e-3:
        raise SimulationError(f"cannot withdraw negative bytes: {n_bytes}")
    amount = min(max(n_bytes, 0.0), buffer._usage)
    buffer._usage -= amount
    return amount


def advance_ramp(path: NetworkPath, requested: int, dt: float) -> float:
    """Move the path's established stream count toward ``requested`` over ``dt``."""
    if path.config.ramp_time <= 0.0:
        path._effective_streams = float(requested)
        return path._effective_streams
    # Closing connections is immediate; opening ramps exponentially.
    if requested <= path._effective_streams:
        path._effective_streams = float(requested)
    else:
        rate = dt / path.config.ramp_time
        gap = requested - path._effective_streams
        path._effective_streams = min(
            float(requested), path._effective_streams + gap * min(1.0, rate) + 0.5 * dt
        )
    return path._effective_streams


def advance(
    testbed: Testbed,
    threads,
    duration: float = 1.0,
    *,
    read_available: float = float("inf"),
    file_efficiency: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> StageFlows:
    """Advance ``testbed`` by ``duration`` seconds, one method call per substep."""
    self = testbed
    require_positive(duration, "duration")
    n = self._clamp_threads(threads)
    noise = [proc.step() for proc in self._noise]

    dt = min(self.config.substep, duration)
    steps = max(1, int(round(duration / dt)))
    dt = duration / steps

    read_bytes = networked_bytes = written_bytes = 0.0
    remaining_read = max(0.0, read_available)

    read_rate = self._source.aggregate_rate(n[0], file_efficiency=file_efficiency[0])
    read_rate = mbps_to_bytes_per_sec(read_rate * noise[0])
    write_rate = self._destination.aggregate_rate(n[2], file_efficiency=file_efficiency[2])
    write_rate = mbps_to_bytes_per_sec(write_rate * noise[2])

    faults = self.faults
    tpt_drift = faults is not None and faults.has_tpt_drift
    net_tpt_scale = 1.0
    for _ in range(steps):
        f_read = f_net = f_write = 1.0
        if faults is not None:
            f_read = faults.storage_scale("read", self._now)
            f_write = faults.storage_scale("write", self._now)
            f_net = faults.network_scale(self._now)
            if faults.take_receiver_restarts(self._now, self._now + dt):
                self.receiver_buffer.reset()
        if tpt_drift:
            read_rate = self._source.aggregate_rate(
                n[0],
                file_efficiency=file_efficiency[0],
                tpt_scale=faults.tpt_scale("read", self._now),
            )
            read_rate = mbps_to_bytes_per_sec(read_rate * noise[0])
            write_rate = self._destination.aggregate_rate(
                n[2],
                file_efficiency=file_efficiency[2],
                tpt_scale=faults.tpt_scale("write", self._now),
            )
            write_rate = mbps_to_bytes_per_sec(write_rate * noise[2])
            net_tpt_scale = faults.tpt_scale("network", self._now)
        streams = advance_ramp(self._network, n[1], dt)
        net_rate = self._network.aggregate_rate(
            streams,
            self._now,
            file_efficiency=file_efficiency[1],
            tpt_scale=net_tpt_scale,
        )
        net_rate = min(mbps_to_bytes_per_sec(net_rate * noise[1]) * f_net, self.rate_cap)

        want_read = min(read_rate * f_read * dt, remaining_read, self.sender_buffer.free)
        want_net = min(net_rate * dt, self.sender_buffer.usage, self.receiver_buffer.free)
        want_write = min(write_rate * f_write * dt, self.receiver_buffer.usage)

        moved_write = withdraw(self.receiver_buffer, want_write)
        moved_net = withdraw(self.sender_buffer, want_net)
        deposit(self.receiver_buffer, moved_net)
        moved_read = deposit(self.sender_buffer, want_read)

        read_bytes += moved_read
        networked_bytes += moved_net
        written_bytes += moved_write
        remaining_read = max(0.0, remaining_read - moved_read)
        self._now += dt

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
        sender_usage=self.sender_buffer.usage,
        receiver_usage=self.receiver_buffer.usage,
        sender_free=self.sender_buffer.free,
        receiver_free=self.receiver_buffer.free,
        threads=n,
        effective_streams=self._network.effective_streams,
    )
