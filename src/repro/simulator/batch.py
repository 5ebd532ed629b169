"""Fleet-vectorized simulator core: N transfers per ``step_second`` call.

:class:`BatchedSimulator` holds N independent transfer states (sender /
receiver occupancy, elapsed time, per-stage moved / finish accumulators) as
numpy column arrays and advances all of them in one ``step_second`` call.
It replays :class:`~repro.simulator.core.IONetworkSimulator`'s event queue
**bit-identically** — every ``StageMetrics`` field and both diagnostics
match the scalar oracle exactly — so consumers (population training, the
fleet co-simulation path) can switch between the two freely.

Two engines, chosen per step
----------------------------

The vectorized *superround* engine below pays a fixed numpy cost per round,
and a round advances each column by only its earliest run of tied tasks.
Columns with one cadence — equal per-stage rate and chunk rows, equal ε,
overhead and duration — stay aligned, and a batch of
:data:`SUPERROUND_MIN_BATCH` or more of them steps through superrounds.
Any other batch steps each column in turn through the scalar kernel
:func:`~repro.simulator.core.event_loop`.  Jittered population members
never share a cadence and fall out of step: on fig5-read variants a step
took ~350 superrounds of ~20 heap pops each, and ran 0.11× as fast as the
scalar loops (DESIGN §15.1).

How the heap is vectorized
--------------------------

The scalar simulator pops ``(t, seq, stage)`` tasks one at a time.  The
batched engine keeps, per transfer, one *slot* per scheduled thread laid
out in three fixed-width per-stage blocks, with a "next event time" and a
sequence number per slot, and advances all transfers in synchronized
*rounds*:

* a round finds each transfer's earliest event time (``argmin`` over the
  slot columns) and the maximal run of tasks tied at that time that the
  heap would pop consecutively — same stage, sequence numbers below any
  tied task of another stage;
* buffer preconditions are boolean masks (read needs sender space, network
  needs sender data *and* receiver space, write needs receiver data); a
  blocked run re-queues wholesale at ``t + ε`` with no state change;
* an unblocked run moves whole chunks; the number of chunks that safely
  fit is bounded conservatively, the new buffer/moved values come from
  ``np.add.accumulate`` (sequential left-fold, so every intermediate is
  bit-identical to the scalar ``+=`` chain), and the boundary event that
  moves a partial chunk falls back to processing a single task with the
  scalar's exact ``min``-chain;
* when the three stages' tied runs are cleanly ordered by sequence number
  (the common lockstep case) all three process in one round, each seeing
  the buffer state the previous one left behind.

Two observations make the relabelling cheap.  Sequence numbers only ever
matter through *comparisons* between coexisting tasks, so any renumbering
that preserves relative order is invisible — freshly pushed tasks take
``ctr + slot_index`` and ``ctr`` jumps past the block width.  And tasks of
one stage are anonymous (same chunk, same rate), so which *slot* carries
which outcome of a burst is a free choice — outcomes are assigned in slot
order, no per-burst ranking needed.

Rate/chunk tables are precomputed per clamped triple with ``np.minimum``
over the batch, replicating the scalar operation order exactly
(``min(tpt, bw / n) * 1e6 / 8.0``).

Telemetry (``sim/batch_steps``, ``sim/batch_size``, ``sim/batch_column_steps``,
``sim/batch_rounds`` and ``sim/batch_events`` counters and a deferred
column-lane summary) accumulates in plain python attributes during
stepping — neither engine performs any observability lookup — and is
exported once by :meth:`BatchedSimulator.export_telemetry`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.simulator.config import SimulatorConfig
from repro.simulator.core import StageMetrics, event_loop, initial_queue
from repro.utils.errors import SimulationError

__all__ = ["SUPERROUND_MIN_BATCH", "BatchStageMetrics", "BatchedSimulator"]

#: Smallest one-cadence batch that steps through superrounds: the
#: measured break-even.  In the thread-throttled ``fleet_steps`` regime of
#: ``benchmarks/bench_parallel.py`` (2-vCPU Xeon guest, one BLAS thread)
#: superrounds ran 0.8× as fast as per-column stepping at batch 3, 1.1× at
#: 4, 1.3× at 5, 1.4–2.0× at 8 and 11–13× at 64.
SUPERROUND_MIN_BATCH = 5

_INF = np.inf
_BIG = np.int32(2**31 - 1)

#: Deferred column-lane format for the end-of-run telemetry export.
_BATCH_FMT = (
    '{"kind":"sim.batch","step":%d,"batch":%d,"rounds":%d,"events":%d}'
)


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
        self._eps = col(lambda c: c.epsilon)
        self._ovh = col(lambda c: c.task_overhead)
        self._chunk_s = col(lambda c: c.chunk_seconds)
        self._min_chunk = col(lambda c: c.min_chunk_bytes)
        self._nmax = np.array([c.max_threads for c in self.configs], dtype=np.int64)
        #: Per-column event-loop constants as python floats (per-column path).
        self._loop_consts = list(zip(*(
            a.tolist()
            for a in (self._horizon, self._eps, self._ovh, self._cap_s, self._cap_r)
        )))
        #: Whether every column shares one duration, epsilon and overhead —
        #: with equal rate/chunk rows, the superround engine's precondition.
        self._one_timing = all(
            bool((a == a[0]).all()) for a in (self._horizon, self._eps, self._ovh)
        )

        self._sender = np.zeros(n)
        self._receiver = np.zeros(n)
        self._elapsed = np.zeros(n)
        self.reset(sender_usage=sender_usage, receiver_usage=receiver_usage)
        #: Diagnostics of the most recent step, one entry per transfer.
        self.last_blocked_retries = np.zeros(n, dtype=np.int64)
        self.last_queue_peak = np.zeros(n, dtype=np.int64)

        self._rows = np.arange(n)
        self._ksl = 0  # allocated per-stage block width
        # Telemetry accumulates in plain ints/lists; no obs calls in-loop.
        self._stat_steps = 0
        self._stat_transfer_steps = 0
        self._stat_column_steps = 0
        self._stat_rounds: list[int] = []
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

    # ------------------------------------------------------------- buffers
    def _ensure(self, ksl: int) -> None:
        """(Re)allocate the per-slot working arrays for block width ``ksl``."""
        if ksl <= self._ksl:
            return
        n = self.batch
        self._ksl = ksl
        k3 = 3 * ksl
        self._t = np.empty((n, k3))
        self._seq = np.empty((n, k3), dtype=np.int32)
        self._idxgrid = np.broadcast_to(np.arange(ksl, dtype=np.int32), (n, ksl))
        self._tie = np.empty((n, k3), dtype=bool)
        self._scr = np.empty((n, ksl), dtype=bool)
        self._fold = np.empty((3 * n, ksl + 2))
        self._tmin = np.empty(n)

    # ---------------------------------------------------------------- step
    def step_second(self, threads) -> BatchStageMetrics:
        """Advance every transfer by its configured ``duration``.

        ``threads`` is an ``(N, 3)`` array-like of per-transfer concurrency
        triples; values are rounded and clamped to ``[1, max_threads]``
        exactly as the scalar simulator does.  Batches of at least
        :data:`SUPERROUND_MIN_BATCH` columns that share one cadence step
        through vectorized superrounds; any other batch steps each column
        through the scalar event loop.  Both are bit-identical to it.
        """
        n, rates3, chunks3 = self._tables(threads)
        if (
            self.batch >= SUPERROUND_MIN_BATCH
            and self._one_timing
            and bool((rates3 == rates3[0]).all())
            and bool((chunks3 == chunks3[0]).all())
        ):
            return self._step_superrounds(n, rates3, chunks3)
        return self._step_columns(n, rates3, chunks3)

    def _tables(self, threads):
        """Clamped ``(N, 3)`` threads and the per-(transfer, stage) rate/chunk tables."""
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
        return n, rates3, chunks3

    def _step_columns(self, n, rates3, chunks3) -> BatchStageMetrics:
        """Advance each column in turn through the scalar event loop."""
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
        self._stat_column_steps += self.batch
        return self._finish(
            n, np.array(throughputs), np.array(blocked, dtype=np.int64), 0, events
        )

    def _step_superrounds(self, n, rates3, chunks3) -> BatchStageMetrics:
        """Advance every column at once by replaying the heaps in lockstep."""
        n_rows = self.batch
        cum = np.cumsum(n, 1)
        total = cum[:, 2]
        ksl = int(n.max())
        self._ensure(ksl)
        t = self._t[:, : 3 * ksl]
        seq = self._seq[:, : 3 * ksl]
        tie = self._tie[:, : 3 * ksl]
        idxg = self._idxgrid[:, :ksl]
        tmin = self._tmin
        rows = self._rows
        t_s = [t[:, s * ksl:(s + 1) * ksl] for s in range(3)]
        seq_s = [seq[:, s * ksl:(s + 1) * ksl] for s in range(3)]
        tie_s = [tie[:, s * ksl:(s + 1) * ksl] for s in range(3)]
        # Initial queue: per stage, slots [0, n_s) at t = 0 with sequence
        # numbers continuing across the blocks in (read, net, write) order.
        for s in range(3):
            alive = idxg < n[:, s:s + 1]
            np.copyto(t_s[s], np.where(alive, 0.0, _INF))
            seq_s[s][:] = idxg + (0 if s == 0 else cum[:, s - 1:s])
        ctr = total.astype(np.int32)

        moved3 = np.zeros((n_rows, 3))
        fin3 = np.zeros((n_rows, 3))
        blocked = np.zeros(n_rows, dtype=np.int64)
        sender, receiver = self._sender, self._receiver
        cap_s, cap_r = self._cap_s, self._cap_r
        horizon, eps, ovh = self._horizon, self._eps, self._ovh
        fold = self._fold
        fold_w = fold.shape[1]
        fold_flat = fold.reshape(-1)
        gather_base = rows * fold_w
        events = 0
        rounds = 0

        while True:
            t.min(1, out=tmin)
            act = tmin < horizon
            if not act.any():
                break
            rounds += 1
            np.equal(t, tmin[:, None], out=tie)
            # Tied-run seq extents per stage; BIG/-1 mark an empty run.
            # Only the four extents the ord3 test needs are computed up
            # front; the leader tie-break (rare) fills in mn[0] lazily.
            mn1 = np.minimum.reduce(seq_s[1], axis=1, where=tie_s[1], initial=_BIG)
            mn2 = np.minimum.reduce(seq_s[2], axis=1, where=tie_s[2], initial=_BIG)
            mx0 = np.maximum.reduce(seq_s[0], axis=1, where=tie_s[0],
                                    initial=np.int32(-1))
            mx1 = np.maximum.reduce(seq_s[1], axis=1, where=tie_s[1],
                                    initial=np.int32(-1))
            # Cleanly ordered read < net < write runs process as one
            # superround; otherwise only the leader stage's tied prefix.
            # (Rows with ties in a single stage are vacuously ordered, so
            # the common lockstep regimes all take the fast path.)
            ord3 = (mx0 < mn1) & (mx0 < mn2) & (mx1 < mn2)
            allord = bool(ord3.all())
            if not allord:
                mn0 = np.minimum.reduce(seq_s[0], axis=1, where=tie_s[0],
                                        initial=_BIG)
                mn = (mn0, mn1, mn2)
                lead = np.where(mn0 <= mn1, 0, 1)
                lead = np.where(mn2 < np.minimum(mn0, mn1), 2, lead)
            proceed = act.copy()
            for s in range(3):
                if allord:
                    member = tie_s[s] & proceed[:, None]
                else:
                    othlim = np.minimum(mn[(s + 1) % 3], mn[(s + 2) % 3])
                    gate = act & np.where(ord3, proceed, lead == s)
                    lim = np.where(ord3, _BIG, othlim)
                    member = tie_s[s] & gate[:, None] & (seq_s[s] < lim[:, None])
                m = np.add.reduce(member, axis=1, dtype=np.int32)
                if not m.any():
                    continue
                c = chunks3[:, s]
                r = rates3[:, s]
                # Exact scalar preconditions and single-event min-chains
                # (np.minimum matches the scalar if/min ladders bit-for-bit
                # on the in-range values these buffers can take).
                if s == 0:
                    sup = cap_s - sender
                    amt1 = np.minimum(c, sup)
                elif s == 1:
                    sup = np.minimum(sender, cap_r - receiver)
                    amt1 = np.minimum(np.minimum(c, sender), sup)
                else:
                    sup = receiver
                    amt1 = np.minimum(c, sup)
                blkc = sup <= 0.0
                anyblk = bool(blkc.any())
                # Conservative whole-chunk count: one chunk of slack keeps
                # the fold exact-full under FP drift; the boundary event
                # runs through the single-task path instead.
                m_eff = np.minimum(
                    m, np.maximum(np.floor(sup / c).astype(np.int32) - 1, 0)
                )
                has = m >= 1
                if anyblk:
                    exec_ = has & ~blkc
                    blk = has ^ exec_
                else:
                    exec_ = has
                full = exec_ & (m_eff >= 1)
                single = exec_ ^ full
                amt = np.where(full, c, amt1)
                j = np.where(full, m_eff, single)
                u = np.where(blk, m, j) if anyblk else j
                jmax = int(j.max())
                if jmax > 0:
                    # Sequential folds: primary buffer, receiver (net only)
                    # and the per-stage moved counter advance through
                    # np.add.accumulate so every intermediate matches the
                    # scalar += chain bit-for-bit.
                    w = jmax + 1
                    nf = 3 * n_rows if s == 1 else 2 * n_rows
                    fv = fold[:nf, :w]
                    primary = receiver if s == 2 else sender
                    step_p = amt if s == 0 else -amt
                    fold[0:n_rows, 0] = primary
                    fold[0:n_rows, 1:w] = step_p[:, None]
                    fold[n_rows:2 * n_rows, 0] = moved3[:, s]
                    fold[n_rows:2 * n_rows, 1:w] = amt[:, None]
                    if s == 1:
                        fold[2 * n_rows:3 * n_rows, 0] = receiver
                        fold[2 * n_rows:3 * n_rows, 1:w] = amt[:, None]
                    np.add.accumulate(fv, axis=1, out=fv)
                    gi = gather_base + j
                    new_p = fold_flat.take(gi)
                    new_mv = fold_flat.take(gi + n_rows * fold_w)
                    execd = j > 0
                    if s == 0:
                        np.copyto(sender, new_p, where=execd)
                    elif s == 1:
                        new_rcv = fold_flat.take(gi + 2 * n_rows * fold_w)
                        np.copyto(sender, new_p, where=execd)
                        np.copyto(receiver, new_rcv, where=execd)
                    else:
                        np.copyto(receiver, new_p, where=execd)
                    np.copyto(moved3[:, s], new_mv, where=execd)
                    finish = tmin + amt / r
                    fin_col = fin3[:, s]
                    np.copyto(fin_col, finish, where=execd & (finish > fin_col))
                    if anyblk:
                        tnew = np.where(blk, tmin + eps, finish + ovh)
                    else:
                        tnew = finish + ovh
                else:
                    tnew = tmin + eps
                if anyblk:
                    blocked += np.where(blk, m, 0)
                tpush = np.where(tnew < horizon, tnew, _INF)
                # Consume the first u members (slot order — tasks of one
                # stage are anonymous, so the assignment is free).
                if bool(np.any(u < m)):
                    rk = np.add.accumulate(member, axis=1, dtype=np.int32)
                    upd = member & (rk <= u[:, None])
                else:
                    upd = member
                np.copyto(t_s[s], tpush[:, None], where=upd)
                np.copyto(seq_s[s], idxg + ctr[:, None], where=upd)
                ctr += np.int32(ksl)
                events += int(u.sum())
                proceed &= u >= m

        thr3 = (moved3 / np.maximum(horizon[:, None], fin3)) * 8.0 / 1e6
        return self._finish(n, thr3, blocked, rounds, events)

    def _finish(self, n, thr3, blocked, rounds: int, events: int) -> BatchStageMetrics:
        """Record one step's clocks, diagnostics and telemetry; build its metrics."""
        sender, receiver = self._sender, self._receiver
        self._elapsed += self._horizon
        self.last_blocked_retries = blocked
        # Each pop pushes at most one task back: the peak is the initial size.
        self.last_queue_peak = n.sum(1)
        self._stat_steps += 1
        self._stat_transfer_steps += self.batch
        self._stat_rounds.append(rounds)
        self._stat_events.append(events)
        return BatchStageMetrics(
            throughput_read=thr3[:, 0],
            throughput_network=thr3[:, 1],
            throughput_write=thr3[:, 2],
            sender_usage=sender.copy(),
            receiver_usage=receiver.copy(),
            sender_free=self._cap_s - sender,
            receiver_free=self._cap_r - receiver,
            threads=n,
        )

    # ----------------------------------------------------------- telemetry
    def export_telemetry(self) -> bool:
        """Flush accumulated counters to the active obs session, if any.

        Stepping itself never touches :mod:`repro.obs`; this exports the
        deferred totals and a column-lane per-step summary in one call at
        end of run.  ``sim/batch_column_steps`` counts the transfer-steps
        taken per column, ``sim/batch_rounds`` the superrounds, and
        ``sim/batch_events`` the scalar heap pops either engine replayed.
        Returns True when a session was active and the export happened.
        """
        sess = obs.active()
        if sess is None or self._stat_steps == 0:
            return False
        sess.count("sim/batch_steps", self._stat_steps)
        sess.count("sim/batch_size", self._stat_transfer_steps)
        sess.count("sim/batch_column_steps", self._stat_column_steps)
        sess.count("sim/batch_rounds", sum(self._stat_rounds))
        sess.count("sim/batch_events", sum(self._stat_events))
        steps = self._stat_steps
        sess.sample_columns(
            _BATCH_FMT,
            (
                list(range(steps)),
                [self.batch] * steps,
                self._stat_rounds,
                self._stat_events,
            ),
            steps,
        )
        self._stat_steps = 0
        self._stat_transfer_steps = 0
        self._stat_column_steps = 0
        self._stat_rounds = []
        self._stat_events = []
        return True
