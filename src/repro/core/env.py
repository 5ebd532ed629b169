"""RL environments for the concurrency-optimization task.

Both environments present the paper's state space (§IV-D1): current thread
counts, per-stage throughputs, and unused buffer space at the sender and
receiver — 8 dimensions, normalized to O(1) ranges.  Actions are
3-dimensional continuous vectors mapped to integer thread counts.  The
state (:func:`encode_state`) and the action mapping
(:func:`threads_from_action`) are written once here; the environments,
:class:`~repro.core.batched_env.BatchedEnv` and the production controller
(:class:`~repro.core.production.AutoMDTController`) all encode through
them, and score steps with :class:`~repro.core.utility.UtilityFunction`.

* :class:`SimulatorEnv` wraps the Algorithm-1 training simulator — this is
  where offline PPO training happens.
* :class:`TestbedEnv` wraps the evaluation emulator with an endless data
  source — used for online-training comparisons and fine-tuning (§V-C).

Action conventions (``action_mode``):

* ``"normalized"`` (default) — action component ``a`` maps to
  ``round(1 + a (n_max - 1))``; the policy works in [0, 1] per dimension,
  which keeps the Gaussian's scale sane.
* ``"direct"`` — the paper-literal convention: the action *is* the thread
  count, rounded and clamped to ``[1, n_max]``.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.exploration import ExplorationProfile
from repro.core.utility import UtilityFunction
from repro.emulator.testbed import Testbed
from repro.simulator.config import SimulatorConfig
from repro.simulator.core import IONetworkSimulator
from repro.simulator.scenarios import scenario_from_profile
from repro.utils.config import require_positive
from repro.utils.errors import ConfigError
from repro.utils.rng import as_generator

STATE_DIM = 8
ACTION_DIM = 3


def threads_from_action(action, max_threads: int, action_mode: str) -> tuple[int, int, int]:
    """Map a continuous action to an integer concurrency triple.

    The §IV-F rule: scale (``"normalized"`` mode), round, clamp to
    ``[1, max_threads]``.
    """
    a = np.asarray(action, dtype=float).reshape(-1)
    if a.shape != (3,):
        raise ConfigError(f"expected 3-dim action, got shape {a.shape}")
    raw = 1.0 + a * (max_threads - 1) if action_mode == "normalized" else a
    threads = np.clip(np.round(raw), 1, max_threads).astype(int)
    return (int(threads[0]), int(threads[1]), int(threads[2]))


def encode_state(
    threads, throughputs, sender_free, receiver_free,
    max_threads, throughput_scale, sender_capacity, receiver_capacity,
) -> np.ndarray:
    """The 8-dim normalized state (§IV-D1): threads over ``max_threads``,
    throughputs over ``throughput_scale``, free buffer space over capacity."""
    n = np.asarray(threads, dtype=float) / max_threads
    t = np.asarray(throughputs, dtype=float) / throughput_scale
    buffers = np.array([sender_free / sender_capacity, receiver_free / receiver_capacity])
    return np.concatenate([n, t, buffers])


class _EnvBase:
    """Shared state/action plumbing for both environments."""

    state_dim = STATE_DIM
    action_dim = ACTION_DIM

    def __init__(
        self,
        *,
        utility: UtilityFunction,
        max_threads: int,
        throughput_scale: float,
        sender_capacity: float,
        receiver_capacity: float,
        max_reward: float,
        episode_steps: int = 10,
        action_mode: str = "normalized",
        normalize_reward: bool = True,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        if action_mode not in ("normalized", "direct"):
            raise ConfigError(f"unknown action_mode {action_mode!r}")
        require_positive(episode_steps, "episode_steps")
        require_positive(throughput_scale, "throughput_scale")
        self.utility = utility
        self.max_threads = int(max_threads)
        self.throughput_scale = float(throughput_scale)
        self.sender_capacity = float(sender_capacity)
        self.receiver_capacity = float(receiver_capacity)
        self.max_reward = float(max_reward)
        self.episode_steps = int(episode_steps)
        self.action_mode = action_mode
        self.normalize_reward = normalize_reward
        self.rng = as_generator(rng)
        self._step_count = 0

    # ----------------------------------------------------------- conversions
    def action_to_threads(self, action) -> tuple[int, int, int]:
        """Map a continuous action to an integer concurrency triple."""
        return threads_from_action(action, self.max_threads, self.action_mode)

    def threads_to_action(self, threads) -> np.ndarray:
        """Inverse map (exact at integer thread counts)."""
        n = np.asarray(threads, dtype=float)
        if self.action_mode == "normalized":
            return (n - 1.0) / max(1, self.max_threads - 1)
        return n

    def make_state(self, threads, throughputs, sender_free, receiver_free) -> np.ndarray:
        """Assemble the 8-dim normalized state vector (:func:`encode_state`)."""
        return encode_state(
            threads, throughputs, sender_free, receiver_free, self.max_threads,
            self.throughput_scale, self.sender_capacity, self.receiver_capacity,
        )

    def observe(self, m) -> tuple[np.ndarray, float, float]:
        """``(state, reward, utility)`` after a step that produced ``m``.

        ``m`` is a step's :class:`~repro.simulator.core.StageMetrics` or
        :class:`~repro.emulator.testbed.StageFlows`.  The utility is
        evaluated once; the reward is it over ``R_max`` when
        ``normalize_reward``.
        """
        utility = self.utility(m.throughputs, m.threads)
        reward = utility / self.max_reward if self.normalize_reward else utility
        state = self.make_state(m.threads, m.throughputs, m.sender_free, m.receiver_free)
        return state, reward, utility

    def _transition(self, m) -> tuple[np.ndarray, float, bool, dict]:
        """The ``step`` result of a step that produced ``m``."""
        state, reward, utility = self.observe(m)
        self._step_count += 1
        info = {
            "threads": m.threads,
            "throughputs": m.throughputs,
            "utility": utility,
            "sender_usage": m.sender_usage,
            "receiver_usage": m.receiver_usage,
        }
        return state, reward, self._step_count >= self.episode_steps, info

    def random_threads(self) -> tuple[int, int, int]:
        """Uniform random concurrency triple (episode initialization)."""
        n = self.rng.integers(1, self.max_threads + 1, size=3)
        return (int(n[0]), int(n[1]), int(n[2]))

    # --------------------------------------------------------------- protocol
    def reset(self) -> np.ndarray:  # pragma: no cover - abstract
        raise NotImplementedError

    def step(self, action) -> tuple[np.ndarray, float, bool, dict]:  # pragma: no cover
        raise NotImplementedError


class SimulatorEnv(_EnvBase):
    """Offline-training environment over :class:`IONetworkSimulator`.

    ``scenario_sampler`` (optional) is called at every reset to produce a
    fresh :class:`SimulatorConfig` — domain randomization for robustness
    studies.  Without it, the single configured scenario is reused and only
    the initial thread counts / buffer fills vary.
    """

    def __init__(
        self,
        config: SimulatorConfig,
        *,
        utility: UtilityFunction | None = None,
        episode_steps: int = 10,
        action_mode: str = "normalized",
        normalize_reward: bool = True,
        randomize_initial_buffers: bool = True,
        scenario_sampler: Callable[[np.random.Generator], SimulatorConfig] | None = None,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        utility = utility or UtilityFunction()
        super().__init__(
            utility=utility,
            max_threads=config.max_threads,
            throughput_scale=config.bottleneck,
            sender_capacity=config.sender_buffer_capacity,
            receiver_capacity=config.receiver_buffer_capacity,
            max_reward=utility.max_reward(config.bottleneck, config.optimal_threads()),
            episode_steps=episode_steps,
            action_mode=action_mode,
            normalize_reward=normalize_reward,
            rng=rng,
        )
        self.config = config
        self.scenario_sampler = scenario_sampler
        self.randomize_initial_buffers = randomize_initial_buffers
        self.simulator = IONetworkSimulator(config)

    @classmethod
    def from_profile(
        cls,
        profile: ExplorationProfile,
        **kwargs,
    ) -> "SimulatorEnv":
        """Build the training environment straight from an exploration profile."""
        config = scenario_from_profile(
            profile.tpt,
            profile.bandwidth,
            sender_buffer_capacity=profile.sender_buffer_capacity,
            receiver_buffer_capacity=profile.receiver_buffer_capacity,
            max_threads=profile.max_threads,
            label="exploration-profile",
        )
        return cls(config, **kwargs)

    def start_episode(self) -> tuple[int, int, int]:
        """Algorithm 2, line 5, up to the first simulated second.

        Resamples the scenario (with a ``scenario_sampler``), resets the
        simulator in place to random buffer fills, and returns the random
        initial threads.  RNG draw order: scenario, sender fill, receiver
        fill, threads.  :meth:`reset` steps the simulator under the threads;
        :class:`~repro.core.batched_env.BatchedEnv` starts each member's
        episode through this and steps its columns together.
        """
        if self.scenario_sampler is not None:
            self.config = self.scenario_sampler(self.rng)
            self.max_threads = self.config.max_threads
            self.throughput_scale = self.config.bottleneck
            self.sender_capacity = self.config.sender_buffer_capacity
            self.receiver_capacity = self.config.receiver_buffer_capacity
            self.max_reward = self.utility.max_reward(
                self.config.bottleneck, self.config.optimal_threads()
            )
            self.simulator = IONetworkSimulator(self.config)
        self._step_count = 0
        sender = receiver = 0.0
        if self.randomize_initial_buffers:
            sender = float(self.rng.uniform(0.0, 0.5)) * self.sender_capacity
            receiver = float(self.rng.uniform(0.0, 0.5)) * self.receiver_capacity
        self.simulator.reset(sender_usage=sender, receiver_usage=receiver)
        return self.random_threads()

    def reset(self) -> np.ndarray:
        """Start a new episode with random threads (Algorithm 2, line 5)."""
        m = self.simulator.step_second(self.start_episode())
        return self.make_state(m.threads, m.throughputs, m.sender_free, m.receiver_free)

    def step(self, action) -> tuple[np.ndarray, float, bool, dict]:
        """Apply ``action`` for one simulated second (GET_UTILITY, Algorithm 1)."""
        return self._transition(self.simulator.step_second(self.action_to_threads(action)))


class TestbedEnv(_EnvBase):
    """Online environment over the evaluation emulator (endless data source).

    Each step advances the testbed by ``probe_interval`` virtual seconds.
    Used for the online-training cost comparison and for fine-tuning a
    pretrained policy against the richer dynamics.
    """

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        testbed: Testbed,
        *,
        utility: UtilityFunction | None = None,
        episode_steps: int = 10,
        probe_interval: float = 1.0,
        action_mode: str = "normalized",
        normalize_reward: bool = True,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        utility = utility or UtilityFunction()
        cfg = testbed.config
        super().__init__(
            utility=utility,
            max_threads=cfg.max_threads,
            throughput_scale=cfg.bottleneck_bandwidth,
            sender_capacity=cfg.sender_buffer_capacity,
            receiver_capacity=cfg.receiver_buffer_capacity,
            max_reward=utility.max_reward(cfg.bottleneck_bandwidth, cfg.optimal_threads()),
            episode_steps=episode_steps,
            action_mode=action_mode,
            normalize_reward=normalize_reward,
            rng=rng,
        )
        require_positive(probe_interval, "probe_interval")
        self.testbed = testbed
        self.probe_interval = probe_interval

    def reset(self) -> np.ndarray:
        """Start a new episode with random threads; buffers persist realistically."""
        self._step_count = 0
        f = self.testbed.advance(self.random_threads(), self.probe_interval)
        return self.make_state(f.threads, f.throughputs, f.sender_free, f.receiver_free)

    def step(self, action) -> tuple[np.ndarray, float, bool, dict]:
        """Apply ``action`` for one probe interval on the live testbed."""
        return self._transition(
            self.testbed.advance(self.action_to_threads(action), self.probe_interval)
        )
