"""AutoMDT core: utility, exploration, PPO agent, training, production loop.

The public entry point is :class:`repro.core.agent.AutoMDT`, which wires the
paper's pipeline together:

1. :func:`repro.core.exploration.run_exploration` — the 10-minute
   random-threads run that measures ``B_i``, ``TPT_i`` and the bottleneck;
2. :func:`repro.core.training.train` — offline PPO training (Algorithm 2)
   inside the Algorithm-1 simulator;
3. :class:`repro.core.production.AutoMDTController` — the trained policy
   driving a real transfer through
   :class:`repro.transfer.engine.ModularTransferEngine`.
"""

from repro.core.agent import AutoMDT
from repro.core.env import SimulatorEnv, TestbedEnv
from repro.core.exploration import ExplorationProfile, run_exploration
from repro.core.networks import PolicyNetwork, ValueNetwork
from repro.core.population import (
    PopulationMember,
    PopulationResult,
    train_population,
)
from repro.core.ppo import PPOAgent, PPOConfig, RolloutMemory
from repro.core.production import AutoMDTController
from repro.core.training import TrainingConfig, TrainingResult, train
from repro.core.utility import UtilityFunction

__all__ = [
    "AutoMDT",
    "SimulatorEnv",
    "TestbedEnv",
    "ExplorationProfile",
    "run_exploration",
    "PolicyNetwork",
    "ValueNetwork",
    "PPOAgent",
    "PPOConfig",
    "RolloutMemory",
    "AutoMDTController",
    "TrainingConfig",
    "TrainingResult",
    "train",
    "UtilityFunction",
    "PopulationMember",
    "PopulationResult",
    "train_population",
]
