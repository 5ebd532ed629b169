"""BatchedSimulator vs IONetworkSimulator: exact equivalence sweep.

The batched engine's contract is *bit-identity*: every ``StageMetrics``
field and both diagnostics (``last_blocked_retries``, ``last_queue_peak``)
must equal the scalar oracle's exactly — ``==`` on floats, no tolerance —
across seeded random ``(threads, reset, usage)`` sequences.  The property
sweep drives both simulators through the three fig5 testbed presets
(read / network / write bottleneck), which between them exercise full
bursts, partial boundary chunks and ε-retry blocking.
"""

import numpy as np
import pytest

from repro.emulator.presets import (
    fig5_network_bottleneck,
    fig5_read_bottleneck,
    fig5_write_bottleneck,
)
from repro.simulator import (
    BatchedSimulator,
    IONetworkSimulator,
    SimulatorConfig,
    simulator_config_from_testbed,
)

PRESETS = {
    "fig5-read": fig5_read_bottleneck,
    "fig5-network": fig5_network_bottleneck,
    "fig5-write": fig5_write_bottleneck,
}


def assert_matches(got, batched, expected, scalars, where):
    """Every metric, both diagnostics and both buffers equal the oracles'."""
    for i, want in enumerate(expected):
        assert got[i] == want, f"{where} column {i}"
        assert batched.last_blocked_retries[i] == scalars[i].last_blocked_retries, where
        assert batched.last_queue_peak[i] == scalars[i].last_queue_peak, where
    assert np.all(batched.sender_usage == [s.sender_usage for s in scalars]), where
    assert np.all(batched.receiver_usage == [s.receiver_usage for s in scalars]), where


def drive_both(configs, threads_seq, *, resets=None):
    """Step scalar oracles and the batched simulator in lockstep; compare all.

    ``resets`` maps a step index to the ``(sender, receiver)`` occupancies
    every simulator is reset to before that step.
    """
    resets = resets or {}
    scalars = [IONetworkSimulator(c) for c in configs]
    batched = BatchedSimulator(configs)
    for step, threads in enumerate(threads_seq):
        if step in resets:
            snd, rcv = resets[step]
            for i, sim in enumerate(scalars):
                sim.reset(sender_usage=float(snd[i]), receiver_usage=float(rcv[i]))
            batched.reset(sender_usage=snd, receiver_usage=rcv)
        expected = [
            sim.step_second(tuple(int(v) for v in threads[i]))
            for i, sim in enumerate(scalars)
        ]
        got = batched.step_second(threads)
        assert_matches(got, batched, expected, scalars, f"step {step}")


def random_drive(config, *, steps, batch, seed, reset_every):
    """Random thread triples and periodic random resets for one config."""
    rng = np.random.default_rng(seed)
    hi = config.max_threads
    threads_seq, resets = [], {}
    for step in range(steps):
        if reset_every and step % reset_every == 0:
            resets[step] = (
                rng.uniform(0.0, 0.5 * config.sender_buffer_capacity, batch),
                rng.uniform(0.0, 0.5 * config.receiver_buffer_capacity, batch),
            )
        threads_seq.append(rng.integers(1, hi + 1, (batch, 3)))
    drive_both([config] * batch, threads_seq, resets=resets)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_equivalence_sweep_fig5_presets(name):
    """~1k sequences: 56 steps x 6 columns x 3 presets, random resets."""
    testbed = PRESETS[name]()
    config = simulator_config_from_testbed(testbed)
    random_drive(config, steps=56, batch=6, seed=sum(map(ord, name)),
                 reset_every=13)


def test_equivalence_tiny_buffers_partial_storm():
    """Buffers a few chunks deep: boundary chunks and blocking dominate."""
    config = SimulatorConfig(
        tpt_read=200.0, tpt_network=150.0, tpt_write=50.0,
        bandwidth_read=2000.0, bandwidth_network=1000.0, bandwidth_write=400.0,
        sender_buffer_capacity=5e5, receiver_buffer_capacity=4e5,
        max_threads=12, label="tiny",
    )
    random_drive(config, steps=30, batch=6, seed=3, reset_every=7)


def test_equivalence_heterogeneous_configs():
    """One batch, different configs per column."""
    configs = [
        simulator_config_from_testbed(PRESETS[name]())
        for name in sorted(PRESETS)
    ] * 2
    rng = np.random.default_rng(11)
    drive_both(configs, [rng.integers(1, 31, (len(configs), 3)) for _ in range(25)])


def test_equivalence_clamps_threads_like_scalar():
    config = simulator_config_from_testbed(fig5_read_bottleneck())
    want = IONetworkSimulator(config).step_second((0, 999, 2.4))
    got = BatchedSimulator(config, 1).step_second(np.array([[0.0, 999.0, 2.4]]))
    assert got == [want]
    assert got[0].threads == want.threads == (1, 30, 2)
