"""Population-batched training environment over :class:`BatchedSimulator`.

:class:`BatchedEnv` holds N member environments as columns of one
fleet-vectorized simulator: one :meth:`step_all` call advances the whole
population's simulated second in-process, without N environment objects
or N pool processes.  The simulator steps each column through the scalar
event loop in turn.  Column ``i`` reproduces
:class:`repro.core.env.SimulatorEnv` *bit-identically* — same per-column
RNG draw order on reset (sender fill, receiver fill, initial threads),
same action mapping, same state assembly and reward arithmetic — so a
population trained through the batched path matches the scalar path
exactly (see ``tests/core/test_population_batched.py``).

Unlike :class:`SimulatorEnv`, scenario resampling is not supported: the
population's variants are fixed at construction (that is what the
population hedges over), and all columns share one episode clock — the
``done`` flag is synchronized by construction since every column counts
the same ``episode_steps``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.env import ACTION_DIM, STATE_DIM
from repro.core.utility import UtilityFunction
from repro.simulator.batch import BatchedSimulator, BatchStageMetrics
from repro.simulator.config import SimulatorConfig
from repro.utils.config import require_positive
from repro.utils.errors import ConfigError
from repro.utils.rng import as_generator

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
        if action_mode not in ("normalized", "direct"):
            raise ConfigError(f"unknown action_mode {action_mode!r}")
        require_positive(episode_steps, "episode_steps")
        if rngs is None:
            rngs = [None] * len(configs)
        if len(rngs) != len(configs):
            raise ConfigError(
                f"{len(configs)} configs but {len(rngs)} rng streams"
            )
        self.batch = len(configs)
        self.configs = configs
        self.utility = utility or UtilityFunction()
        self.rngs = [as_generator(r) for r in rngs]
        self.episode_steps = int(episode_steps)
        self.action_mode = action_mode
        self.normalize_reward = normalize_reward
        self.randomize_initial_buffers = randomize_initial_buffers

        self.max_threads = np.array([c.max_threads for c in configs], dtype=np.int64)
        self.throughput_scale = np.array([c.bottleneck for c in configs])
        self.sender_capacity = np.array([c.sender_buffer_capacity for c in configs])
        self.receiver_capacity = np.array([c.receiver_buffer_capacity for c in configs])
        self.max_reward = np.array(
            [
                self.utility.max_reward(c.bottleneck, c.optimal_threads())
                for c in configs
            ]
        )
        self.simulator = BatchedSimulator(configs)
        self._step_count = 0

    # ----------------------------------------------------------- conversions
    def action_to_threads(self, actions) -> np.ndarray:
        """``(N, 3)`` continuous actions to integer concurrency triples."""
        a = np.asarray(actions, dtype=float)
        if a.shape != (self.batch, 3):
            raise ConfigError(
                f"expected ({self.batch}, 3) actions, got shape {a.shape}"
            )
        if self.action_mode == "normalized":
            raw = 1.0 + a * (self.max_threads[:, None] - 1)
        else:
            raw = a
        return np.clip(np.round(raw), 1, self.max_threads[:, None]).astype(int)

    def _states(self, metrics: BatchStageMetrics) -> np.ndarray:
        """The 8-dim normalized state per column, as one ``(N, 8)`` array."""
        n = metrics.threads / self.max_threads[:, None]
        t = metrics.throughputs / self.throughput_scale[:, None]
        buffers = np.stack(
            [
                metrics.sender_free / self.sender_capacity,
                metrics.receiver_free / self.receiver_capacity,
            ],
            axis=1,
        )
        return np.concatenate([n, t, buffers], axis=1)

    # --------------------------------------------------------------- protocol
    def reset_all(self, mask=None) -> np.ndarray:
        """Start a new episode for every column in ``mask`` (default: all).

        Per selected column the RNG draw order matches ``SimulatorEnv``:
        sender fill, receiver fill (when ``randomize_initial_buffers``),
        then the random initial thread triple.  Unselected columns draw
        nothing — their streams stay aligned with members that already
        finished — but are still stepped (their results are ignored).
        """
        self._step_count = 0
        n_members = self.batch
        snd = np.zeros(n_members)
        rcv = np.zeros(n_members)
        threads = np.ones((n_members, 3), dtype=np.int64)
        selected = (
            range(n_members) if mask is None else np.flatnonzero(np.asarray(mask))
        )
        for i in selected:
            rng = self.rngs[i]
            if self.randomize_initial_buffers:
                snd[i] = float(rng.uniform(0.0, 0.5)) * self.sender_capacity[i]
                rcv[i] = float(rng.uniform(0.0, 0.5)) * self.receiver_capacity[i]
            threads[i] = rng.integers(1, self.max_threads[i] + 1, size=3)
        self.simulator.reset(sender_usage=snd, receiver_usage=rcv, mask=mask)
        metrics = self.simulator.step_second(threads)
        return self._states(metrics)

    def step_all(self, actions) -> tuple[np.ndarray, np.ndarray, bool, BatchStageMetrics]:
        """One simulated second for every column; returns per-column rewards.

        The ``done`` flag is a single bool — columns share the episode
        clock.  The raw :class:`BatchStageMetrics` rides along as the info
        channel.
        """
        threads = self.action_to_threads(actions)
        metrics = self.simulator.step_second(threads)
        self._step_count += 1
        done = self._step_count >= self.episode_steps
        # One vectorized utility evaluation for all columns, bit-identical
        # to the per-column scalar calls (see UtilityFunction.batch).
        utilities = self.utility.batch(metrics.throughputs, metrics.threads)
        rewards = utilities / self.max_reward if self.normalize_reward else utilities
        return self._states(metrics), rewards, done, metrics
