"""Population-batched training environment over :class:`BatchedSimulator`.

:class:`BatchedEnv` holds N member :class:`~repro.core.env.SimulatorEnv`
environments whose simulators are the columns of one
:class:`~repro.simulator.batch.BatchedSimulator`: one :meth:`step_all`
call advances the whole population's simulated second in-process,
without N pool processes.  Each member keeps its own RNG stream, draws
its episode start through :meth:`SimulatorEnv.start_episode`, and maps
actions, assembles states and scores rewards through the scalar
environment's codec on the ``StageMetrics`` its own simulator column
returned — so column ``i`` *is* ``SimulatorEnv(configs[i],
rng=rngs[i])`` stepped through the batch, and a population trained
through the batched path matches the scalar path exactly (see
``tests/core/test_population_batched.py``).

Unlike :class:`SimulatorEnv`, scenario resampling is not supported: the
population's variants are fixed at construction (that is what the
population hedges over), and all columns share one episode clock — the
``done`` flag is synchronized by construction since every column counts
the same ``episode_steps``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.env import ACTION_DIM, STATE_DIM, SimulatorEnv
from repro.core.utility import UtilityFunction
from repro.simulator.batch import BatchedSimulator
from repro.simulator.config import SimulatorConfig
from repro.simulator.core import StageMetrics
from repro.utils.errors import ConfigError

__all__ = ["BatchedEnv"]


class BatchedEnv:
    """N member environments stepped as columns of one batched simulator.

    Parameters
    ----------
    configs:
        One :class:`SimulatorConfig` per member.
    rngs:
        Per-member RNG seeds/generators.  Column ``i`` draws exactly what a
        ``SimulatorEnv(configs[i], rng=rngs[i])`` would — the key to
        bit-identity with the per-member scalar path.
    """

    state_dim = STATE_DIM
    action_dim = ACTION_DIM

    def __init__(
        self,
        configs: Sequence[SimulatorConfig],
        rngs: Sequence | None = None,
        *,
        utility: UtilityFunction | None = None,
        episode_steps: int = 10,
        action_mode: str = "normalized",
        normalize_reward: bool = True,
        randomize_initial_buffers: bool = True,
    ) -> None:
        configs = list(configs)
        if not configs:
            raise ConfigError("BatchedEnv needs at least one member config")
        if rngs is None:
            rngs = [None] * len(configs)
        if len(rngs) != len(configs):
            raise ConfigError(
                f"{len(configs)} configs but {len(rngs)} rng streams"
            )
        utility = utility or UtilityFunction()
        self.members = [
            SimulatorEnv(
                config, utility=utility, episode_steps=episode_steps,
                action_mode=action_mode, normalize_reward=normalize_reward,
                randomize_initial_buffers=randomize_initial_buffers, rng=rng,
            )
            for config, rng in zip(configs, rngs)
        ]
        self.batch = len(configs)
        self.episode_steps = int(episode_steps)
        self.simulator = BatchedSimulator(configs)
        for member, column in zip(self.members, self.simulator.columns):
            member.simulator = column
        self._step_count = 0

    # --------------------------------------------------------------- protocol
    def reset_all(self, mask=None) -> np.ndarray:
        """Start a new episode for every column in ``mask`` (default: all).

        Each selected member starts its episode as ``SimulatorEnv`` does
        (:meth:`SimulatorEnv.start_episode`).  Unselected columns draw
        nothing — their streams stay aligned with members that already
        finished — but are still stepped, at one thread per stage (their
        results are ignored).
        """
        self._step_count = 0
        threads = [(1, 1, 1)] * self.batch
        selected = (
            range(self.batch) if mask is None else np.flatnonzero(np.asarray(mask))
        )
        for i in selected:
            threads[i] = self.members[i].start_episode()
        metrics = self.simulator.step_second(threads)
        return np.array([
            member.make_state(m.threads, m.throughputs, m.sender_free, m.receiver_free)
            for member, m in zip(self.members, metrics)
        ])

    def step_all(
        self, actions
    ) -> tuple[np.ndarray, np.ndarray, bool, list[StageMetrics]]:
        """One simulated second for every column; returns per-column rewards.

        The ``done`` flag is a single bool — columns share the episode
        clock.  The columns' :class:`StageMetrics` ride along as the info
        channel.
        """
        if np.shape(actions) != (self.batch, 3):
            raise ConfigError(
                f"expected ({self.batch}, 3) actions, got shape {np.shape(actions)}"
            )
        threads = [
            member.action_to_threads(action) for member, action in zip(self.members, actions)
        ]
        metrics = self.simulator.step_second(threads)
        self._step_count += 1
        observed = [member.observe(m) for member, m in zip(self.members, metrics)]
        states = np.array([state for state, _, _ in observed])
        rewards = np.array([reward for _, reward, _ in observed])
        return states, rewards, self._step_count >= self.episode_steps, metrics
