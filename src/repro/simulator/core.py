"""Algorithm 1: the priority-queue I/O–network dynamics simulator.

Faithful to the paper's pseudocode:

* tasks (one per scheduled thread slot) live in a time-ordered priority
  queue; popping a task checks its buffer precondition, moves a chunk if it
  can, and re-enqueues itself at ``t + d_task + ε`` while that lands before
  the horizon (a stage's tasks due at one time share one queue entry; see
  :func:`event_loop`);
* a read task needs free sender-buffer space, a network task needs data at
  the sender *and* free receiver space, a write task needs data at the
  receiver;
* after the queue drains, per-stage byte counters are normalized by their
  finish times to produce throughputs;
* the buffer occupancies persist across calls ("update the internal
  simulator state"), which is exactly what gives the environment its
  non-trivial dynamics (Fig. 1).

Aggregate stage ceilings ``B_i`` are enforced by capping the effective
per-thread rate at ``B_i / n_i`` — with ``n_i`` threads running the stage
can never exceed its bandwidth.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro import obs
from repro.simulator.config import SimulatorConfig
from repro.utils.errors import SimulationError
from repro.utils.units import bytes_per_sec_to_mbps, mbps_to_bytes_per_sec

_READ, _NETWORK, _WRITE = 0, 1, 2
STAGE_NAMES = ("read", "network", "write")

#: Histogram buckets for event-queue depth (tasks = scheduled thread slots).
_QUEUE_DEPTH_BUCKETS = (2.0, 5.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0)


@dataclass(frozen=True)
class StageMetrics:
    """Per-second observation returned by :meth:`IONetworkSimulator.step_second`.

    Throughputs are Mbps achieved over the simulated second; buffer values
    are bytes at the end of the second.
    """

    throughput_read: float
    throughput_network: float
    throughput_write: float
    sender_usage: float
    receiver_usage: float
    sender_free: float
    receiver_free: float
    threads: tuple[int, int, int]

    @property
    def throughputs(self) -> tuple[float, float, float]:
        """``(t_r, t_n, t_w)`` in Mbps."""
        return (self.throughput_read, self.throughput_network, self.throughput_write)


class IONetworkSimulator:
    """Event-queue simulator of coupled read/network/write stages.

    The simulator is deterministic: identical call sequences produce
    identical metrics, which keeps offline PPO training reproducible.

    Parameters
    ----------
    config:
        Static scenario description (per-thread speeds, ceilings, buffers).
    sender_usage, receiver_usage:
        Initial staging-buffer occupancy in bytes (default empty).
    """

    def __init__(
        self,
        config: SimulatorConfig,
        *,
        sender_usage: float = 0.0,
        receiver_usage: float = 0.0,
    ) -> None:
        self.config = config
        self._validate_usage(sender_usage, receiver_usage)
        self._sender_usage = float(sender_usage)
        self._receiver_usage = float(receiver_usage)
        self._elapsed = 0.0
        # Bound method lookup hoisted out of the per-step path.
        self._obs_active = obs.active
        #: Diagnostics of the most recent step — how many blocked tasks
        #: re-queued after the ε back-off, the most tasks the event queue
        #: held, and how many tasks it popped.  :meth:`step_second` exports
        #: the first two to :mod:`repro.obs` when enabled.
        self.last_blocked_retries = 0
        self.last_queue_peak = 0
        self.last_events = 0

    def _validate_usage(self, sender: float, receiver: float) -> None:
        if not (0.0 <= sender <= self.config.sender_buffer_capacity):
            raise SimulationError(f"sender usage {sender} out of range")
        if not (0.0 <= receiver <= self.config.receiver_buffer_capacity):
            raise SimulationError(f"receiver usage {receiver} out of range")

    # --------------------------------------------------------------- state
    @property
    def sender_usage(self) -> float:
        """Bytes currently staged at the sender."""
        return self._sender_usage

    @property
    def receiver_usage(self) -> float:
        """Bytes currently staged at the receiver."""
        return self._receiver_usage

    @property
    def elapsed(self) -> float:
        """Total simulated seconds so far."""
        return self._elapsed

    def reset(self, *, sender_usage: float = 0.0, receiver_usage: float = 0.0) -> None:
        """Reset buffers (and the clock) to start a fresh episode."""
        self._validate_usage(sender_usage, receiver_usage)
        self._sender_usage = float(sender_usage)
        self._receiver_usage = float(receiver_usage)
        self._elapsed = 0.0

    # ----------------------------------------------------------------- step
    def _clamp_threads(self, threads) -> tuple[int, int, int]:
        n_max = self.config.max_threads
        clamped = tuple(int(min(n_max, max(1, round(float(n))))) for n in threads)
        if len(clamped) != 3:
            raise SimulationError(f"expected 3 thread counts, got {threads!r}")
        return clamped  # type: ignore[return-value]

    def advance(self, threads) -> StageMetrics:
        """Simulate ``config.duration`` seconds under concurrency ``threads``.

        ``threads`` is any length-3 sequence ``(n_r, n_n, n_w)``; values are
        rounded and clamped to ``[1, max_threads]`` exactly as the
        production loop does (§IV-F).  This is the whole step without
        observability: :meth:`step_second` adds its obs export, and
        :class:`~repro.simulator.batch.BatchedSimulator` advances each of
        its columns through it.
        """
        cfg = self.config
        n = self._clamp_threads(threads)

        # Effective per-thread byte rates with the aggregate ceiling applied,
        # and the chunk each thread moves per task.
        rates = [
            mbps_to_bytes_per_sec(min(tpt, bw / n_i))
            for tpt, bw, n_i in zip(cfg.tpt, cfg.bandwidth, n)
        ]
        chunks = [
            max(cfg.min_chunk_bytes, rate * cfg.chunk_seconds) for rate in rates
        ]

        throughputs, sender, receiver, blocked_retries, pops = event_loop(
            rates, chunks, initial_queue(n), self._sender_usage, self._receiver_usage,
            cfg.duration, cfg.epsilon, cfg.task_overhead,
            cfg.sender_buffer_capacity, cfg.receiver_buffer_capacity,
        )
        self._sender_usage = sender
        self._receiver_usage = receiver
        self._elapsed += cfg.duration
        self.last_blocked_retries = blocked_retries
        # Each popped task pushes at most one task back, so the number of
        # queued tasks never grows past its start: one per thread.
        self.last_queue_peak = n[0] + n[1] + n[2]
        self.last_events = pops

        return StageMetrics(
            throughput_read=throughputs[_READ],
            throughput_network=throughputs[_NETWORK],
            throughput_write=throughputs[_WRITE],
            sender_usage=sender,
            receiver_usage=receiver,
            sender_free=cfg.sender_buffer_capacity - sender,
            receiver_free=cfg.receiver_buffer_capacity - receiver,
            threads=n,
        )

    def step_second(self, threads) -> StageMetrics:
        """:meth:`advance`, then count the step in the active obs session."""
        metrics = self.advance(threads)
        sess = self._obs_active()
        if sess is not None:
            sess.count("sim/steps")
            sess.count("sim/blocked_retries", self.last_blocked_retries)
            sess.observe("sim/queue_peak", self.last_queue_peak,
                         buckets=_QUEUE_DEPTH_BUCKETS)
        return metrics


def initial_queue(n) -> list[tuple[float, int, int, int]]:
    """Algorithm 1's t = 0 task queue (line 29) for thread triple ``n``.

    One ``(0.0, seq, stage, count)`` run per stage, in (read, network,
    write) order: the stage's ``count`` tasks own sequence numbers ``seq …
    seq + count - 1``, exactly as if they had been queued one by one.  At
    most three entries, priorities all 0.0 and sequence numbers ascending,
    so the list is already a valid min-heap.
    """
    queue: list[tuple[float, int, int, int]] = []
    seq = 0
    for stage in (_READ, _NETWORK, _WRITE):
        if n[stage] > 0:
            queue.append((0.0, seq, stage, n[stage]))
            seq += n[stage]
    return queue


def event_loop(
    rates, chunks, init_queue, sender, receiver,
    horizon, eps, overhead, sender_cap, receiver_cap,
):
    """Algorithm 1's event loop over one horizon (no observability calls).

    ``rates``/``chunks`` are the per-stage ``(read, network, write)``
    per-thread byte rates and (positive) chunk sizes, ``init_queue`` the
    t = 0 queue (:func:`initial_queue`; copied, never mutated) and
    ``sender``/``receiver`` the buffer occupancies at the start of the
    horizon.

    Returns ``(throughputs, sender, receiver, blocked_retries, pops)``:
    per-stage Mbps normalized by finish time, the occupancies at the end,
    the number of ε back-offs, and the number of tasks popped — every
    pushed task is popped, so that is the final sequence number.
    :meth:`IONetworkSimulator.advance` steps through it.

    Heap entries are *runs* ``(t, seq, stage, count)``: ``count`` tasks of
    one stage due at ``t`` that own the consecutive sequence numbers
    ``seq … seq + count - 1``.  A one-entry-per-task heap pops exactly
    those tasks back to back — any other task due at ``t`` has a sequence
    number outside the range, and every task pushed meanwhile sorts after
    them — and tasks of one stage are interchangeable (same rate, same
    chunk).  So a popped run is processed member by member with the
    per-task arithmetic: one ``+=`` per member on the buffers and the
    moved counter, never a multiplication.  Members that move a full chunk
    all finish at the same time and are pushed back as one run; a partial
    chunk is pushed alone; and once a member finds its buffer blocked,
    nothing changes until another stage runs, so the rest of the run backs
    off together.  Each push takes the next ``count`` sequence numbers.
    Every float operation, the relative heap order, ``blocked_retries`` and
    the pop count are those of the per-task loop
    (``tests/simulator/heap_oracle.py``, the equivalence oracle).
    """
    heappop, heappush = heapq.heappop, heapq.heappush
    rate_r, rate_n, rate_w = rates
    chunk_r, chunk_n, chunk_w = chunks
    # A full chunk takes the same ``amount / rate`` every time.
    dur_r, dur_n, dur_w = chunk_r / rate_r, chunk_n / rate_n, chunk_w / rate_w
    moved_r = moved_n = moved_w = 0.0
    fin_r = fin_n = fin_w = 0.0
    blocked_retries = 0

    # The initial queue is already a valid min-heap, so no heapify is
    # needed.  The sequence number breaks ties deterministically.
    queue = init_queue.copy()
    seq = sum(entry[3] for entry in queue)

    while queue:
        t, _, stage, count = heappop(queue)
        # Each pass settles the run's next ``k`` members: a streak of full
        # chunks, else one partial chunk, else the blocked rest of the run.
        if stage == _READ:
            while count:
                for k in range(count):
                    if chunk_r > sender_cap - sender:
                        break
                    sender += chunk_r
                    moved_r += chunk_r
                else:
                    k = count
                if k:
                    finish = t + dur_r
                    if finish > fin_r:
                        fin_r = finish
                    t_next = finish + overhead
                else:
                    free = sender_cap - sender
                    if free > 0.0:  # a partial chunk fills the sender buffer
                        sender += free
                        moved_r += free
                        finish = t + free / rate_r
                        if finish > fin_r:
                            fin_r = finish
                        t_next = finish + overhead
                        k = 1
                    else:
                        blocked_retries += count
                        t_next = t + eps
                        k = count
                if t_next < horizon:
                    heappush(queue, (t_next, seq, _READ, k))
                    seq += k
                count -= k
        elif stage == _NETWORK:
            while count:
                for k in range(count):
                    if sender < chunk_n or receiver_cap - receiver < chunk_n:
                        break
                    sender -= chunk_n
                    receiver += chunk_n
                    moved_n += chunk_n
                else:
                    k = count
                if k:
                    finish = t + dur_n
                    if finish > fin_n:
                        fin_n = finish
                    t_next = finish + overhead
                else:
                    free = receiver_cap - receiver
                    if sender > 0.0 and free > 0.0:  # a partial chunk
                        amount = sender if sender < free else free
                        sender -= amount
                        receiver += amount
                        moved_n += amount
                        finish = t + amount / rate_n
                        if finish > fin_n:
                            fin_n = finish
                        t_next = finish + overhead
                        k = 1
                    else:
                        blocked_retries += count
                        t_next = t + eps
                        k = count
                if t_next < horizon:
                    heappush(queue, (t_next, seq, _NETWORK, k))
                    seq += k
                count -= k
        else:  # _WRITE
            while count:
                for k in range(count):
                    if chunk_w > receiver:
                        break
                    receiver -= chunk_w
                    moved_w += chunk_w
                else:
                    k = count
                if k:
                    finish = t + dur_w
                    if finish > fin_w:
                        fin_w = finish
                    t_next = finish + overhead
                else:
                    if receiver > 0.0:  # a partial chunk drains the receiver
                        amount = receiver
                        receiver -= amount
                        moved_w += amount
                        finish = t + amount / rate_w
                        if finish > fin_w:
                            fin_w = finish
                        t_next = finish + overhead
                        k = 1
                    else:
                        blocked_retries += count
                        t_next = t + eps
                        k = count
                if t_next < horizon:
                    heappush(queue, (t_next, seq, _WRITE, k))
                    seq += k
                count -= k

    # Normalize throughputs by their finish times (line 37): a stage that
    # ran past the horizon gets credited over its true elapsed time.
    throughputs = [
        bytes_per_sec_to_mbps(moved / (horizon if horizon >= fin else fin))
        for moved, fin in ((moved_r, fin_r), (moved_n, fin_n), (moved_w, fin_w))
    ]
    return throughputs, sender, receiver, blocked_retries, seq
