"""The burst-grouped event loop against the one-entry-per-task heap oracle.

``repro.simulator.core.event_loop`` queues a stage's tasks that share a
time as one run.  It must return exactly what the per-task heap loop
(:mod:`tests.simulator.heap_oracle`) returns — throughputs, both buffers,
the ε back-off count and the pop count — on every input, ``==`` on floats.
The generated inputs aim at the places a grouped queue could go wrong:
equal rates and chunks across stages (cross-stage ties at one time),
buffer capacities that are exact multiples of a chunk (a run that fills a
buffer to the byte), full and empty starting buffers, zero task overhead,
an ε far below or above one chunk's time, and 1–30 threads per stage.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.simulator import IONetworkSimulator, SimulatorConfig
from repro.simulator.core import event_loop, initial_queue
from tests.simulator import heap_oracle

RATES = (1.25e6, 5e6, 1.25e7, 2.5e7)  # bytes/s: 10, 40, 100, 200 Mbps


@st.composite
def loop_inputs(draw):
    """One ``event_loop`` call: (threads, rates, chunks, start, constants)."""
    threads = tuple(draw(st.integers(1, 30)) for _ in range(3))
    rate = st.sampled_from(RATES) | st.floats(1e6, 5e7)
    if draw(st.booleans()):
        rates = [draw(rate)] * 3  # cross-stage ties
    else:
        rates = [draw(rate) for _ in range(3)]
    chunk_seconds = draw(st.sampled_from((0.01, 0.05, 0.25)) | st.floats(0.005, 0.3))
    chunks = [r * chunk_seconds for r in rates]

    def capacity():
        multiple = st.builds(lambda k, c: k * c, st.integers(1, 60), st.sampled_from(chunks))
        return draw(multiple | st.floats(1e5, 2e9))

    def start(cap):
        return draw(st.sampled_from((0.0, cap)) | st.floats(0.0, 1.0).map(lambda f: f * cap))

    sender_cap, receiver_cap = capacity(), capacity()
    sender, receiver = start(sender_cap), start(receiver_cap)
    horizon = draw(st.just(1.0) | st.floats(0.05, 1.0))
    # ε from far below one chunk's time to several times it; the floor keeps
    # a fully blocked stage's retries (and the oracle's run time) bounded.
    factor = draw(st.floats(0.01, 0.5) | st.floats(1.5, 4.0))
    eps = max(2e-3, chunk_seconds * factor)
    overhead = draw(st.sampled_from((0.0, 5e-4)) | st.floats(0.0, 0.01))
    consts = (horizon, eps, overhead, sender_cap, receiver_cap)
    return threads, rates, chunks, sender, receiver, consts


@settings(max_examples=300, deadline=None)
@given(loop_inputs())
def test_burst_loop_matches_heap_oracle(case):
    threads, rates, chunks, sender, receiver, consts = case
    want = heap_oracle.event_loop(
        rates, chunks, heap_oracle.initial_queue(threads), sender, receiver, *consts
    )
    got = event_loop(rates, chunks, initial_queue(threads), sender, receiver, *consts)
    assert got == want


def test_initial_queue_is_one_run_per_stage():
    queue = initial_queue((3, 1, 4))
    assert queue == [(0.0, 0, 0, 3), (0.0, 3, 1, 1), (0.0, 4, 2, 4)]
    assert [task[:2] for task in heap_oracle.initial_queue((3, 1, 4))] == [
        (0.0, seq) for seq in range(8)
    ]


def test_queue_peak_counts_tasks_not_runs(tmp_path):
    """``last_queue_peak`` and ``sim/queue_peak`` are n_r + n_n + n_w.

    The grouped queue holds at most three entries; its length must not
    stand in for the number of queued tasks.
    """
    config = SimulatorConfig(tpt_read=80.0, tpt_network=160.0, tpt_write=200.0,
                             max_threads=30)
    rng = np.random.default_rng(5)
    triples = [tuple(int(v) for v in rng.integers(1, 31, 3)) for _ in range(20)]
    sim = IONetworkSimulator(config)
    oracle_sender = oracle_receiver = 0.0
    with obs.session(tmp_path) as sess:
        for triple in triples:
            metrics = sim.step_second(triple)
            assert sim.last_queue_peak == sum(triple)
            # The simulator's blocked count is the per-task oracle's.
            rates = [min(tpt, bw / n) * 1e6 / 8.0
                     for tpt, bw, n in zip(config.tpt, config.bandwidth, triple)]
            chunks = [max(config.min_chunk_bytes, r * config.chunk_seconds) for r in rates]
            _, oracle_sender, oracle_receiver, blocked, _ = heap_oracle.event_loop(
                rates, chunks, heap_oracle.initial_queue(triple),
                oracle_sender, oracle_receiver, config.duration, config.epsilon,
                config.task_overhead, config.sender_buffer_capacity,
                config.receiver_buffer_capacity,
            )
            assert sim.last_blocked_retries == blocked
            assert (metrics.sender_usage, metrics.receiver_usage) == (
                oracle_sender, oracle_receiver)
        peaks = sess.registry.histogram("sim/queue_peak")
        assert peaks.count == len(triples)
        assert peaks.sum == sum(sum(t) for t in triples)
