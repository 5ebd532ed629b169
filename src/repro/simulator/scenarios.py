"""Scenario construction for offline training.

Two sources of simulator configs:

* :func:`scenario_from_profile` — the paper's pipeline: take the stage
  bandwidths ``B_i`` and per-thread throughputs ``TPT_i`` measured by the
  exploration/logging phase (§IV-A) and initialize the simulator with them.
* :func:`sample_scenario` — domain randomization around a base scenario
  (or fully random), used by tests and robustness/ablation studies to show
  the agent learns *generalizable dynamics* rather than one operating point.
"""

from __future__ import annotations

import numpy as np

from repro.simulator.config import SimulatorConfig
from repro.utils.rng import as_generator
from repro.utils.units import GiB


def scenario_from_profile(
    tpt: tuple[float, float, float],
    bandwidth: tuple[float, float, float],
    *,
    sender_buffer_capacity: float = 4.0 * GiB,
    receiver_buffer_capacity: float = 4.0 * GiB,
    max_threads: int = 30,
    label: str = "from-profile",
) -> SimulatorConfig:
    """Build a simulator config from measured per-thread / aggregate rates.

    ``tpt`` and ``bandwidth`` are the ``(read, network, write)`` triples from
    the exploration phase, in Mbps.
    """
    return SimulatorConfig(
        tpt_read=tpt[0],
        tpt_network=tpt[1],
        tpt_write=tpt[2],
        bandwidth_read=bandwidth[0],
        bandwidth_network=bandwidth[1],
        bandwidth_write=bandwidth[2],
        sender_buffer_capacity=sender_buffer_capacity,
        receiver_buffer_capacity=receiver_buffer_capacity,
        max_threads=max_threads,
        label=label,
    )


def simulator_config_from_testbed(testbed, **overrides) -> SimulatorConfig:
    """Simulator config matching an emulator testbed's measured profile.

    Maps a :class:`repro.emulator.testbed.TestbedConfig`'s per-thread
    throughputs and aggregate ceilings onto the Algorithm-1 simulator —
    the same bridge the exploration phase provides on a real deployment,
    here taken from the testbed's ground truth.  Keyword ``overrides``
    pass through to :class:`SimulatorConfig` (e.g. ``duration``).
    """
    fields = dict(
        tpt_read=testbed.source.tpt,
        tpt_network=testbed.network.tpt,
        tpt_write=testbed.destination.tpt,
        bandwidth_read=testbed.source.bandwidth,
        bandwidth_network=testbed.network.capacity,
        bandwidth_write=testbed.destination.bandwidth,
        sender_buffer_capacity=testbed.sender_buffer_capacity,
        receiver_buffer_capacity=testbed.receiver_buffer_capacity,
        max_threads=testbed.max_threads,
        label=testbed.label,
    )
    fields.update(overrides)
    return SimulatorConfig(**fields)


def sample_scenario(
    rng: int | np.random.Generator | None = None,
    *,
    base: SimulatorConfig | None = None,
    jitter: float = 0.2,
    bottleneck_range: tuple[float, float] = (500.0, 2000.0),
    max_threads: int = 30,
) -> SimulatorConfig:
    """Sample a randomized training scenario.

    With ``base`` given, each rate is jittered multiplicatively by up to
    ``±jitter`` — modelling measurement noise between the exploration run
    and reality.  Without ``base``, a fresh scenario is drawn: a bottleneck
    bandwidth in ``bottleneck_range`` (Mbps), per-stage ceilings at
    1–2x the bottleneck, and per-thread throughputs sized so the optimal
    concurrency lands in roughly [3, max_threads*2/3].
    """
    rng = as_generator(rng)
    if base is not None:
        # Python floats: the event loop runs ~1.5x slower on numpy-scalar
        # rates (same values, same results).
        factors = rng.uniform(1.0 - jitter, 1.0 + jitter, size=6).tolist()
        return SimulatorConfig(
            tpt_read=base.tpt_read * factors[0],
            tpt_network=base.tpt_network * factors[1],
            tpt_write=base.tpt_write * factors[2],
            bandwidth_read=base.bandwidth_read * factors[3],
            bandwidth_network=base.bandwidth_network * factors[4],
            bandwidth_write=base.bandwidth_write * factors[5],
            sender_buffer_capacity=base.sender_buffer_capacity,
            receiver_buffer_capacity=base.receiver_buffer_capacity,
            max_threads=base.max_threads,
            duration=base.duration,
            chunk_seconds=base.chunk_seconds,
            min_chunk_bytes=base.min_chunk_bytes,
            epsilon=base.epsilon,
            task_overhead=base.task_overhead,
            label=f"{base.label}+jitter" if base.label else "jittered",
        )

    bottleneck = float(rng.uniform(*bottleneck_range))
    # One stage is the bottleneck; the others have headroom.
    ceilings = bottleneck * rng.uniform(1.0, 2.0, size=3)
    ceilings[rng.integers(0, 3)] = bottleneck
    # Optimal thread count per stage drawn in [3, 2/3 * max_threads].
    optimal = rng.integers(3, max(4, (2 * max_threads) // 3), size=3)
    tpt = bottleneck / optimal
    return SimulatorConfig(
        tpt_read=float(tpt[0]),
        tpt_network=float(tpt[1]),
        tpt_write=float(tpt[2]),
        bandwidth_read=float(ceilings[0]),
        bandwidth_network=float(ceilings[1]),
        bandwidth_write=float(ceilings[2]),
        sender_buffer_capacity=float(rng.uniform(1.0, 8.0)) * GiB,
        receiver_buffer_capacity=float(rng.uniform(1.0, 8.0)) * GiB,
        max_threads=max_threads,
        label="random",
    )
