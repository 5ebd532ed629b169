"""Reference oracle: Algorithm 1's event loop with one heap entry per task.

This is the simulator's original kernel, kept verbatim as the test oracle
for the burst-grouped :func:`repro.simulator.core.event_loop`.  Every task
is its own ``(t, seq, stage)`` heap entry; the production kernel groups a
stage's tasks that share a time into one entry and must return exactly
what this loop returns: ``(throughputs, sender, receiver, blocked_retries,
pops)``.
"""

from __future__ import annotations

import heapq

from repro.simulator.core import _NETWORK, _READ, _WRITE
from repro.utils.units import bytes_per_sec_to_mbps


def initial_queue(n) -> list[tuple[float, int, int]]:
    """Algorithm 1's t = 0 task queue (line 29) for thread triple ``n``.

    One ``(0.0, seq, stage)`` task per scheduled thread, in (read, network,
    write) order.  Every priority is 0.0 and sequence numbers ascend, so the
    list is already a valid min-heap.
    """
    queue: list[tuple[float, int, int]] = []
    for stage in (_READ, _NETWORK, _WRITE):
        for _ in range(n[stage]):
            queue.append((0.0, len(queue), stage))
    return queue


def event_loop(
    rates, chunks, init_queue, sender, receiver,
    horizon, eps, overhead, sender_cap, receiver_cap,
):
    """Algorithm 1's event loop over one horizon (no observability calls).

    ``rates``/``chunks`` are the per-stage ``(read, network, write)``
    per-thread byte rates and chunk sizes, ``init_queue`` the t = 0 queue
    (:func:`initial_queue`; copied, never mutated) and ``sender``/
    ``receiver`` the buffer occupancies at the start of the horizon.

    Returns ``(throughputs, sender, receiver, blocked_retries, pops)``:
    per-stage Mbps normalized by finish time, the occupancies at the end,
    the number of ε back-offs, and the number of tasks popped — every
    pushed task is popped, so that is the final sequence number.
    """
    heappop, heappush = heapq.heappop, heapq.heappush
    rate_r, rate_n, rate_w = rates
    chunk_r, chunk_n, chunk_w = chunks
    moved_r = moved_n = moved_w = 0.0
    fin_r = fin_n = fin_w = 0.0
    blocked_retries = 0

    # The initial queue is already a valid min-heap, so no heapify is
    # needed.  The sequence number breaks ties deterministically.
    queue = init_queue.copy()
    seq = len(queue)

    while queue:
        t, _, stage = heappop(queue)
        if stage == _READ:
            free = sender_cap - sender
            if free > 0.0:
                amount = chunk_r if chunk_r <= free else free
                sender += amount
                moved_r += amount
                finish = t + amount / rate_r
                if finish > fin_r:
                    fin_r = finish
                t_next = finish + overhead
            else:
                blocked_retries += 1
                t_next = t + eps
        elif stage == _NETWORK:
            free = receiver_cap - receiver
            if sender > 0.0 and free > 0.0:
                amount = chunk_n
                if sender < amount:
                    amount = sender
                if free < amount:
                    amount = free
                sender -= amount
                receiver += amount
                moved_n += amount
                finish = t + amount / rate_n
                if finish > fin_n:
                    fin_n = finish
                t_next = finish + overhead
            else:
                blocked_retries += 1
                t_next = t + eps
        else:  # _WRITE
            if receiver > 0.0:
                amount = chunk_w if chunk_w <= receiver else receiver
                receiver -= amount
                moved_w += amount
                finish = t + amount / rate_w
                if finish > fin_w:
                    fin_w = finish
                t_next = finish + overhead
            else:
                blocked_retries += 1
                t_next = t + eps
        if t_next < horizon:
            heappush(queue, (t_next, seq, stage))
            seq += 1

    throughputs = [
        bytes_per_sec_to_mbps(moved / (horizon if horizon >= fin else fin))
        for moved, fin in ((moved_r, fin_r), (moved_n, fin_n), (moved_w, fin_w))
    ]
    return throughputs, sender, receiver, blocked_retries, seq
