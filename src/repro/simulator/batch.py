"""Fleet-vectorized simulator core: N transfers per ``step_second`` call.

:class:`BatchedSimulator` holds N independent transfer states (sender /
receiver occupancy, elapsed time) as numpy column arrays and advances all
of them in one ``step_second`` call.  It replays
:class:`~repro.simulator.core.IONetworkSimulator` **bit-identically** —
every ``StageMetrics`` field and both diagnostics match the scalar
simulator exactly — so population training can switch between the two
freely.

Each column steps in turn through the scalar kernel
:func:`~repro.simulator.core.event_loop`, whose burst-grouped heap already
processes a stage's tied tasks as one run; what this class vectorizes is
the rest of a step.  Rate/chunk tables are computed per clamped triple
with ``np.minimum`` over the batch, replicating the scalar operation order
exactly (``min(tpt, bw / n) * 1e6 / 8.0``), and the buffers, clocks and
diagnostics live in column arrays.

Telemetry (``sim/batch_steps``, ``sim/batch_size`` and ``sim/batch_events``
counters and a deferred column-lane summary) accumulates in plain python
attributes during stepping — stepping performs no observability lookup —
and is exported once by :meth:`BatchedSimulator.export_telemetry`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.simulator.config import SimulatorConfig
from repro.simulator.core import StageMetrics, event_loop, initial_queue
from repro.utils.errors import SimulationError

__all__ = ["BatchStageMetrics", "BatchedSimulator"]

#: Deferred column-lane format for the end-of-run telemetry export.
_BATCH_FMT = '{"kind":"sim.batch","step":%d,"batch":%d,"events":%d}'


@dataclass(frozen=True)
class BatchStageMetrics:
    """Columnar :class:`StageMetrics`: one entry per transfer in the batch.

    Array fields are aligned ``(N,)`` (or ``(N, 3)`` for ``threads``);
    :meth:`column` materializes the scalar-simulator dataclass for one
    transfer, bit-identical to what ``IONetworkSimulator`` returns.
    """

    throughput_read: np.ndarray
    throughput_network: np.ndarray
    throughput_write: np.ndarray
    sender_usage: np.ndarray
    receiver_usage: np.ndarray
    sender_free: np.ndarray
    receiver_free: np.ndarray
    threads: np.ndarray

    def __len__(self) -> int:
        return len(self.throughput_read)

    @property
    def throughputs(self) -> np.ndarray:
        """``(N, 3)`` Mbps array, columns (read, network, write)."""
        return np.stack(
            [self.throughput_read, self.throughput_network, self.throughput_write], 1
        )

    def column(self, i: int) -> StageMetrics:
        """The scalar :class:`StageMetrics` for transfer ``i``."""
        return StageMetrics(
            throughput_read=float(self.throughput_read[i]),
            throughput_network=float(self.throughput_network[i]),
            throughput_write=float(self.throughput_write[i]),
            sender_usage=float(self.sender_usage[i]),
            receiver_usage=float(self.receiver_usage[i]),
            sender_free=float(self.sender_free[i]),
            receiver_free=float(self.receiver_free[i]),
            threads=tuple(int(v) for v in self.threads[i]),
        )


class BatchedSimulator:
    """Vectorized event-queue simulator for N independent transfers.

    Parameters
    ----------
    configs:
        One :class:`SimulatorConfig` per transfer (heterogeneous fleets are
        fine), or a single config with ``batch`` to replicate it.
    batch:
        Batch size when ``configs`` is a single config.
    sender_usage, receiver_usage:
        Optional ``(N,)`` initial occupancies in bytes.
    """

    def __init__(
        self,
        configs: SimulatorConfig | Sequence[SimulatorConfig],
        batch: int | None = None,
        *,
        sender_usage=None,
        receiver_usage=None,
    ) -> None:
        if isinstance(configs, SimulatorConfig):
            configs = [configs] * int(batch if batch is not None else 1)
        self.configs = list(configs)
        if not self.configs:
            raise SimulationError("BatchedSimulator needs at least one config")
        if batch is not None and len(self.configs) != batch:
            raise SimulationError(
                f"batch={batch} but {len(self.configs)} configs given"
            )
        n = self.batch = len(self.configs)

        def col(get) -> np.ndarray:
            return np.array([get(c) for c in self.configs], dtype=np.float64)

        self._tpt3 = np.stack(
            [col(lambda c: c.tpt_read), col(lambda c: c.tpt_network),
             col(lambda c: c.tpt_write)], 1)
        self._bw3 = np.stack(
            [col(lambda c: c.bandwidth_read), col(lambda c: c.bandwidth_network),
             col(lambda c: c.bandwidth_write)], 1)
        self._cap_s = col(lambda c: c.sender_buffer_capacity)
        self._cap_r = col(lambda c: c.receiver_buffer_capacity)
        self._horizon = col(lambda c: c.duration)
        self._chunk_s = col(lambda c: c.chunk_seconds)
        self._min_chunk = col(lambda c: c.min_chunk_bytes)
        self._nmax = np.array([c.max_threads for c in self.configs], dtype=np.int64)
        #: Per-column event-loop constants as python floats.
        self._loop_consts = [
            tuple(float(v) for v in (c.duration, c.epsilon, c.task_overhead,
                                     c.sender_buffer_capacity,
                                     c.receiver_buffer_capacity))
            for c in self.configs
        ]

        self._sender = np.zeros(n)
        self._receiver = np.zeros(n)
        self._elapsed = np.zeros(n)
        self.reset(sender_usage=sender_usage, receiver_usage=receiver_usage)
        #: Diagnostics of the most recent step, one entry per transfer.
        self.last_blocked_retries = np.zeros(n, dtype=np.int64)
        self.last_queue_peak = np.zeros(n, dtype=np.int64)

        # Telemetry accumulates in plain ints/lists; no obs calls in-loop.
        self._stat_steps = 0
        self._stat_transfer_steps = 0
        self._stat_events: list[int] = []

    # --------------------------------------------------------------- state
    @property
    def sender_usage(self) -> np.ndarray:
        """Bytes currently staged at each sender (read-only view)."""
        return self._sender

    @property
    def receiver_usage(self) -> np.ndarray:
        """Bytes currently staged at each receiver (read-only view)."""
        return self._receiver

    @property
    def elapsed(self) -> np.ndarray:
        """Simulated seconds per transfer."""
        return self._elapsed

    def reset(self, *, sender_usage=None, receiver_usage=None, mask=None) -> None:
        """Reset buffers and clocks; ``mask`` restricts to selected columns."""
        n = self.batch
        snd = (np.zeros(n) if sender_usage is None
               else np.broadcast_to(np.asarray(sender_usage, dtype=np.float64), (n,)))
        rcv = (np.zeros(n) if receiver_usage is None
               else np.broadcast_to(np.asarray(receiver_usage, dtype=np.float64), (n,)))
        sel = slice(None) if mask is None else np.asarray(mask, dtype=bool)
        bad = (snd < 0.0) | (snd > self._cap_s) | (rcv < 0.0) | (rcv > self._cap_r)
        if np.any(bad if mask is None else bad & sel):
            raise SimulationError("initial buffer usage out of range")
        if mask is None:
            self._sender[:] = snd
            self._receiver[:] = rcv
            self._elapsed[:] = 0.0
        else:
            np.copyto(self._sender, snd, where=sel)
            np.copyto(self._receiver, rcv, where=sel)
            np.copyto(self._elapsed, 0.0, where=sel)

    # ---------------------------------------------------------------- step
    def step_second(self, threads) -> BatchStageMetrics:
        """Advance every transfer by its configured ``duration``.

        ``threads`` is an ``(N, 3)`` array-like of per-transfer concurrency
        triples; values are rounded and clamped to ``[1, max_threads]``
        exactly as the scalar simulator does.  Each column runs the scalar
        event loop, so the step is bit-identical to it.
        """
        n_rows = self.batch
        threads = np.asarray(threads, dtype=np.float64)
        if threads.shape != (n_rows, 3):
            raise SimulationError(
                f"expected threads of shape ({n_rows}, 3), got {threads.shape}"
            )
        n = np.clip(np.rint(threads), 1, self._nmax[:, None]).astype(np.int64)
        # The scalar op order (min(tpt, bw / n) * 1e6 / 8.0) replicated
        # with batch minimums.
        rates3 = np.minimum(self._tpt3, self._bw3 / n) * 1e6 / 8.0
        chunks3 = np.maximum(self._min_chunk[:, None], rates3 * self._chunk_s[:, None])

        sender = self._sender.tolist()
        receiver = self._receiver.tolist()
        throughputs, blocked = [], []
        events = 0
        for i, (triple, rates, chunks) in enumerate(
            zip(n.tolist(), rates3.tolist(), chunks3.tolist())
        ):
            thr, sender[i], receiver[i], retries, pops = event_loop(
                rates, chunks, initial_queue(triple), sender[i], receiver[i],
                *self._loop_consts[i],
            )
            throughputs.append(thr)
            blocked.append(retries)
            events += pops
        self._sender[:] = sender
        self._receiver[:] = receiver
        self._elapsed += self._horizon
        self.last_blocked_retries = np.array(blocked, dtype=np.int64)
        # Each popped task pushes at most one back: the peak is one per thread.
        self.last_queue_peak = n.sum(1)
        self._stat_steps += 1
        self._stat_transfer_steps += n_rows
        self._stat_events.append(events)
        thr3 = np.array(throughputs)
        return BatchStageMetrics(
            throughput_read=thr3[:, 0],
            throughput_network=thr3[:, 1],
            throughput_write=thr3[:, 2],
            sender_usage=self._sender.copy(),
            receiver_usage=self._receiver.copy(),
            sender_free=self._cap_s - self._sender,
            receiver_free=self._cap_r - self._receiver,
            threads=n,
        )

    # ----------------------------------------------------------- telemetry
    def export_telemetry(self) -> bool:
        """Flush accumulated counters to the active obs session, if any.

        Stepping itself never touches :mod:`repro.obs`; this exports the
        deferred totals and a column-lane per-step summary in one call at
        end of run.  ``sim/batch_size`` counts transfer-steps and
        ``sim/batch_events`` the tasks the event loops popped.  Returns True
        when a session was active and the export happened.
        """
        sess = obs.active()
        if sess is None or self._stat_steps == 0:
            return False
        sess.count("sim/batch_steps", self._stat_steps)
        sess.count("sim/batch_size", self._stat_transfer_steps)
        sess.count("sim/batch_events", sum(self._stat_events))
        steps = self._stat_steps
        sess.sample_columns(
            _BATCH_FMT,
            (list(range(steps)), [self.batch] * steps, self._stat_events),
            steps,
        )
        self._stat_steps = 0
        self._stat_transfer_steps = 0
        self._stat_events = []
        return True
