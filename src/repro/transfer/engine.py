"""The modular transfer engine: controller-driven transfers over a testbed.

This is the production loop of the paper (§IV-F) with the controller
abstracted out: every ``decision_interval`` (virtual) seconds the engine
asks the controller for a concurrency triple, applies it to the testbed,
probes the achieved per-stage throughputs, exchanges buffer reports over
the RPC channel, and hands the controller the resulting observation.

Controllers implement :class:`Controller`; AutoMDT's policy, Marlin's
per-stage optimizers, joint gradient descent and static configurations all
plug in here, so every comparison in the evaluation runs on an identical
data plane.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import Protocol, runtime_checkable

import numpy as np

from repro import obs
from repro.emulator.testbed import Testbed
from repro.transfer.files import Dataset
from repro.transfer.metrics import TransferMetrics
from repro.transfer.probing import ThroughputProbe
from repro.transfer.rpc import BufferReportChannel
from repro.utils.config import require_in_range, require_non_negative, require_positive
from repro.utils.rng import as_generator
from repro.utils.units import bytes_per_sec_to_mbps


#: Histogram buckets for end-to-end throughput samples (Mbps).
_THROUGHPUT_BUCKETS_MBPS = (10.0, 50.0, 100.0, 250.0, 500.0, 1000.0, 2500.0,
                            5000.0, 10000.0, 40000.0)

#: Fixed schema of the per-interval sample: the time column, then
#: :data:`_INTERVAL_COLUMNS`.  The engine hands it with the whole interval
#: table to :meth:`repro.obs.ObsSession.sample_columns`, which defers
#: serialisation to flush time and writes a probe dropout's NaN
#: throughputs as ``null``.  Must stay valid JSON once formatted.
_INTERVAL_FMT = (
    '{"type":"sample","name":"transfer/interval","t":%.3f,'
    '"throughput_read":%.3f,"throughput_network":%.3f,"throughput_write":%.3f,'
    '"threads_read":%d,"threads_network":%d,"threads_write":%d,'
    '"sender_usage":%.0f,"receiver_usage":%.0f,"bytes_written":%.0f}'
)
_INTERVAL_COLUMNS = (
    "throughput_read", "throughput_network", "throughput_write",
    "threads_read", "threads_network", "threads_write",
    "sender_usage", "receiver_usage", "bytes_written",
)


@dataclass(frozen=True)
class Observation:
    """What a controller sees at each decision point.

    Matches the paper's PPO state space (§IV-D1): current thread counts,
    per-stage throughputs, and unused buffer space at both ends (the
    receiver's via the RPC channel, hence possibly one interval stale).
    """

    threads: tuple[int, int, int]
    throughputs: tuple[float, float, float]
    sender_free: float
    receiver_free: float
    sender_capacity: float
    receiver_capacity: float
    elapsed: float
    bytes_written_total: float
    done: bool = False

    @property
    def sender_usage(self) -> float:
        """Bytes staged at the sender."""
        return self.sender_capacity - self.sender_free

    @property
    def receiver_usage(self) -> float:
        """Bytes staged at the receiver (per the last RPC report)."""
        return self.receiver_capacity - self.receiver_free


@runtime_checkable
class Controller(Protocol):
    """Anything that proposes concurrency triples from observations."""

    def propose(self, observation: Observation) -> tuple[int, int, int]:
        """Return the concurrency triple to apply for the next interval."""
        ...  # pragma: no cover

    def reset(self) -> None:
        """Forget per-transfer state before a new run."""
        ...  # pragma: no cover


@dataclass(frozen=True)
class EngineConfig:
    """Engine knobs.

    ``decision_interval`` is the probe/update period (the paper uses 1 s
    probes in production and notes 3–5 s would be needed for *stable*
    metrics online — measurement noise at 1 s is part of what controllers
    must tolerate).
    """

    decision_interval: float = 1.0
    max_seconds: float = 3600.0
    probe_noise: float = 0.0
    probe_smoothing: float = 0.0
    rpc_delay: int = 1
    seed: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        require_positive(self.decision_interval, "decision_interval")
        require_positive(self.max_seconds, "max_seconds")
        require_non_negative(self.probe_noise, "probe_noise")
        # Validate here, not when run() builds the ThroughputProbe: an
        # invalid smoothing must fail at config construction time.
        require_in_range(self.probe_smoothing, 0.0, 0.99, "probe_smoothing")
        require_non_negative(self.rpc_delay, "rpc_delay")


@dataclass(frozen=True)
class TransferResult:
    """Outcome of one dataset transfer (or one supervised attempt).

    ``timed_out`` distinguishes a run that exhausted ``max_seconds`` from a
    completed one; ``aborted`` marks a run stopped early by a supervisor's
    watchdog.  ``bytes_transferred`` is the cumulative durable byte count at
    the destination, including any resumed-from offset.
    """

    completed: bool
    completion_time: float
    total_bytes: float
    metrics: TransferMetrics
    controller_name: str = ""
    timed_out: bool = False
    aborted: bool = False
    bytes_transferred: float = 0.0
    final_threads: tuple[int, int, int] = (1, 1, 1)

    @property
    def effective_throughput(self) -> float:
        """End-to-end Mbps over the whole transfer — the Table I metric."""
        if self.completion_time <= 0:
            return 0.0
        return bytes_per_sec_to_mbps(self.total_bytes / self.completion_time)


class ModularTransferEngine:
    """Runs one dataset transfer, decoupling read/network/write concurrency."""

    def __init__(
        self,
        testbed: Testbed,
        dataset: Dataset,
        controller: Controller,
        config: EngineConfig | None = None,
        *,
        utility_fn: Callable[[tuple[float, float, float], tuple[int, int, int]], float]
        | None = None,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        self.testbed = testbed
        self.dataset = dataset
        self.controller = controller
        self.config = config or EngineConfig()
        self.utility_fn = utility_fn
        self._rng = as_generator(self.config.seed if rng is None else rng)
        #: Terminal observation of the most recent run (None before any run).
        self.last_observation: Observation | None = None

    def _file_efficiency(self) -> tuple[float, float, float]:
        src = self.testbed.config.source
        net = self.testbed.config.network
        dst = self.testbed.config.destination
        return (
            self.dataset.stage_efficiency(src.tpt, src.per_file_cost),
            self.dataset.stage_efficiency(net.tpt, net.per_file_cost),
            self.dataset.stage_efficiency(dst.tpt, dst.per_file_cost),
        )

    def _initial_observation(
        self, elapsed: float, written: float, threads: tuple[int, int, int]
    ) -> Observation:
        return Observation(
            threads=threads,
            throughputs=(0.0, 0.0, 0.0),
            sender_free=self.testbed.sender_buffer.free,
            receiver_free=self.testbed.receiver_buffer.free,
            sender_capacity=self.testbed.sender_buffer.capacity,
            receiver_capacity=self.testbed.receiver_buffer.capacity,
            elapsed=elapsed,
            bytes_written_total=written,
        )

    def run(
        self,
        *,
        start_bytes: float = 0.0,
        start_time: float = 0.0,
        initial_threads: tuple[int, int, int] = (1, 1, 1),
        interval_hook: Callable[[Observation], bool] | None = None,
    ) -> TransferResult:
        """Transfer the whole dataset; returns the result with full metrics.

        ``start_bytes`` / ``start_time`` resume a checkpointed transfer:
        bytes already durable at the destination are not re-read, and the
        virtual clock (which drives fault schedules, background traffic and
        the ``max_seconds`` budget) continues from ``start_time``.
        ``interval_hook`` is called with each interval's observation; when
        it returns ``False`` the run stops early with ``aborted=True`` —
        this is how :class:`repro.transfer.supervisor.TransferSupervisor`
        implements stall detection without duplicating the loop.

        When an observability session is active (:func:`repro.obs.session`),
        the run opens a ``transfer/run`` span and emits one
        ``transfer/interval`` sample per decision interval.
        """
        # Pin the span's virtual_start to this run's clock origin; without
        # this a resumed attempt inherits the previous attempt's end time
        # and the span shows a negative virtual duration.
        obs.set_virtual_time(start_time)
        with obs.span(
            "transfer/run",
            controller=type(self.controller).__name__,
            total_gb=round(self.dataset.total_bytes / 1e9, 3),
            start_bytes=start_bytes,
        ):
            return self._run(
                start_bytes=start_bytes,
                start_time=start_time,
                initial_threads=initial_threads,
                interval_hook=interval_hook,
            )

    def _export_metrics(
        self, sess, metrics: TransferMetrics, bytes_this_run: float
    ) -> None:
        """Emit the whole run's telemetry from its interval table.

        One ``transfer/interval`` sample per probe interval goes to the
        event log as one column-lane entry (serialisation happens at flush
        time, after the transfer); counters and the throughput histogram
        are updated in the registry.
        """
        columns = metrics.columns
        count = len(metrics)
        sess.sample_columns(
            _INTERVAL_FMT,
            (metrics.times, *(columns[name] for name in _INTERVAL_COLUMNS)),
            count,
        )
        reg = sess.registry
        reg.counter("transfer/intervals").inc(count)
        reg.counter("transfer/bytes_written").inc(max(0.0, bytes_this_run))
        reg.histogram(
            "transfer/throughput_write_mbps", buckets=_THROUGHPUT_BUCKETS_MBPS
        ).observe_many(columns["throughput_write"])

    def _run(
        self,
        *,
        start_bytes: float,
        start_time: float,
        initial_threads: tuple[int, int, int],
        interval_hook: Callable[[Observation], bool] | None,
    ) -> TransferResult:
        cfg = self.config
        sess = obs.active()
        require_non_negative(start_bytes, "start_bytes")
        require_non_negative(start_time, "start_time")
        self.testbed.reset(start_time=start_time)
        self.controller.reset()
        probe = ThroughputProbe(
            cfg.probe_noise,
            cfg.probe_smoothing,
            rng=np.random.default_rng(self._rng.integers(2**63)),
        )
        rpc = BufferReportChannel(
            cfg.rpc_delay, initial_value=self.testbed.receiver_buffer.free
        )
        faults = self.testbed.faults
        metrics = TransferMetrics()
        file_eff = self._file_efficiency()
        total = self.dataset.total_bytes
        remaining_read = max(0.0, total - start_bytes)
        written = float(start_bytes)
        t = float(start_time)
        completed = written >= total - 0.5
        aborted = False
        observation = self._initial_observation(t, written, initial_threads)

        while not completed and t < cfg.max_seconds:
            threads = self.controller.propose(observation)
            flows = self.testbed.advance(
                threads,
                cfg.decision_interval,
                read_available=remaining_read,
                file_efficiency=file_eff,
            )
            remaining_read = max(0.0, remaining_read - flows.bytes_read)
            written += flows.bytes_written

            if written >= total - 0.5:
                # Completed mid-interval: interpolate the finish instant.
                overshoot = flows.bytes_written - (written - total)
                fraction = overshoot / flows.bytes_written if flows.bytes_written > 0 else 1.0
                t += cfg.decision_interval * min(1.0, max(0.0, fraction))
                completed = True
            else:
                t += cfg.decision_interval

            measured = probe.observe(flows.throughputs)
            if faults is not None and faults.probe_dropout(t):
                measured = (float("nan"), float("nan"), float("nan"))
            receiver_free_reported = rpc.exchange(
                flows.receiver_free,
                lost=faults is not None and faults.report_lost(t),
            )
            utility = (
                self.utility_fn(measured, flows.threads) if self.utility_fn is not None else None
            )
            metrics.record(
                t,
                throughputs=measured,
                threads=flows.threads,
                sender_usage=flows.sender_usage,
                receiver_usage=flows.receiver_usage,
                utility=utility,
                bytes_written_total=written,
            )
            observation = Observation(
                threads=flows.threads,
                throughputs=measured,
                sender_free=flows.sender_free,
                receiver_free=receiver_free_reported,
                sender_capacity=self.testbed.sender_buffer.capacity,
                receiver_capacity=self.testbed.receiver_buffer.capacity,
                elapsed=t,
                bytes_written_total=written,
                done=completed,
            )
            if completed:
                break
            if interval_hook is not None and not interval_hook(observation):
                aborted = True
                break

        if sess is not None:
            # The interval loop itself carries ZERO instrumentation: every
            # field of the per-interval sample is already in the interval
            # table the engine keeps anyway, so the whole telemetry bill —
            # event-log samples, registry totals, the throughput histogram —
            # is paid here, once, after the transfer loop has finished.
            sess.virtual_time = t
            self._export_metrics(sess, metrics, written - start_bytes)

        timed_out = not completed and not aborted
        if timed_out:
            # The budget ran out: mark the terminal observation done so
            # controllers/metrics consumers can tell this run is over.
            observation = replace(observation, done=True)
        self.last_observation = observation
        return TransferResult(
            completed=completed,
            completion_time=t,
            total_bytes=total,
            metrics=metrics,
            controller_name=type(self.controller).__name__,
            timed_out=timed_out,
            aborted=aborted,
            bytes_transferred=written,
            final_threads=observation.threads,
        )
