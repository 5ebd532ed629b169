"""Population simulator: N transfers per ``step_second`` call.

:class:`BatchedSimulator` is a container of N
:class:`~repro.simulator.core.IONetworkSimulator` columns, one per
independent transfer, and advances all of them in one ``step_second``
call.  Each column steps through
:meth:`IONetworkSimulator.advance <repro.simulator.core.IONetworkSimulator.advance>`,
the scalar simulator's own uninstrumented step, so every
``StageMetrics`` field and both diagnostics are the scalar simulator's
by construction, and population training can switch between the two
freely.  A step returns the columns' own ``StageMetrics``, one per
transfer; the batch adds only the ``(N,)`` diagnostic arrays, masked
resets and a deferred telemetry export.

Telemetry (``sim/batch_steps``, ``sim/batch_size`` and ``sim/batch_events``
counters and a deferred column-lane summary) accumulates in plain python
attributes during stepping — stepping performs no observability lookup —
and is exported once by :meth:`BatchedSimulator.export_telemetry`.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro import obs
from repro.simulator.config import SimulatorConfig
from repro.simulator.core import IONetworkSimulator, StageMetrics
from repro.utils.errors import SimulationError

__all__ = ["BatchedSimulator"]

#: Deferred column-lane format for the end-of-run telemetry export.
_BATCH_FMT = '{"kind":"sim.batch","step":%d,"batch":%d,"events":%d}'


class BatchedSimulator:
    """N independent transfers, one :class:`IONetworkSimulator` column each.

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
        #: The transfers, one scalar simulator each.
        self.columns = [IONetworkSimulator(c) for c in self.configs]
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
        """Bytes currently staged at each sender."""
        return np.array([c.sender_usage for c in self.columns])

    @property
    def receiver_usage(self) -> np.ndarray:
        """Bytes currently staged at each receiver."""
        return np.array([c.receiver_usage for c in self.columns])

    @property
    def elapsed(self) -> np.ndarray:
        """Simulated seconds per transfer."""
        return np.array([c.elapsed for c in self.columns])

    def reset(self, *, sender_usage=None, receiver_usage=None, mask=None) -> None:
        """Reset buffers and clocks; ``mask`` restricts to selected columns."""
        n = self.batch
        snd, rcv = (
            np.broadcast_to(np.asarray(0.0 if u is None else u, dtype=np.float64), (n,))
            for u in (sender_usage, receiver_usage)
        )
        selected = range(n) if mask is None else np.flatnonzero(np.asarray(mask, dtype=bool))
        for i in selected:
            self.columns[i].reset(sender_usage=snd[i], receiver_usage=rcv[i])

    # ---------------------------------------------------------------- step
    def step_second(self, threads) -> list[StageMetrics]:
        """Advance every transfer by its configured ``duration``.

        ``threads`` is an ``(N, 3)`` array-like of per-transfer concurrency
        triples; each column rounds and clamps its row to
        ``[1, max_threads]`` and runs its scalar step.  Returns the N
        columns' :class:`StageMetrics`, in column order.
        """
        if np.shape(threads) != (self.batch, 3):
            raise SimulationError(
                f"expected threads of shape ({self.batch}, 3), got {np.shape(threads)}"
            )
        columns = self.columns
        metrics = [col.advance(row) for col, row in zip(columns, threads)]
        self.last_blocked_retries = np.array(
            [col.last_blocked_retries for col in columns], dtype=np.int64
        )
        self.last_queue_peak = np.array(
            [col.last_queue_peak for col in columns], dtype=np.int64
        )
        self._stat_steps += 1
        self._stat_transfer_steps += self.batch
        self._stat_events.append(sum(col.last_events for col in columns))
        return metrics

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
