"""The I/O–network dynamics simulator (paper §IV-C, Algorithm 1).

This is the paper's offline-training substrate: a priority-queue simulation
of read, network, and write *tasks* coupled through finite sender/receiver
staging buffers.  One :meth:`IONetworkSimulator.step_second` call simulates
one second of transfer activity under a given concurrency triple and
returns the per-stage throughputs plus buffer occupancy — everything the
PPO state space needs.

Scenario sampling (:mod:`repro.simulator.scenarios`) provides the
domain-randomized configurations used during offline training, and the
bridge from a measured exploration profile to a simulator config.
"""

from repro.simulator.batch import BatchedSimulator
from repro.simulator.config import SimulatorConfig
from repro.simulator.core import IONetworkSimulator, StageMetrics
from repro.simulator.scenarios import (
    sample_scenario,
    scenario_from_profile,
    simulator_config_from_testbed,
)

__all__ = [
    "SimulatorConfig",
    "IONetworkSimulator",
    "StageMetrics",
    "BatchedSimulator",
    "sample_scenario",
    "scenario_from_profile",
    "simulator_config_from_testbed",
]
