"""Offline PPO training, Algorithm 2.

Runs episodes of ``M`` steps against an environment (normally
:class:`repro.core.env.SimulatorEnv`), performing one PPO update per episode
and tracking the best episode reward.  Training stops when

* the best reward has reached ``convergence_threshold × R_max`` **and**
* no improvement has been seen for ``stagnation_episodes`` episodes

(the paper's 0.9·R_max + 1000-episode criterion), or when ``max_episodes``
is exhausted.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.core.ppo import PPOAgent
from repro.utils.config import require_in_range, require_positive


@dataclass(frozen=True)
class TrainingConfig:
    """Budget and convergence knobs for Algorithm 2.

    The paper uses ``max_episodes = 30000``, ``steps_per_episode = 10``,
    ``stagnation_episodes = 1000``.  Scaled-down defaults here keep a
    single-core run fast; paper-scale values are a constructor call away.
    """

    max_episodes: int = 5000
    steps_per_episode: int = 10
    episodes_per_update: int = 4
    convergence_threshold: float = 0.9
    stagnation_episodes: int = 300
    log_every: int = 0  # 0 disables progress callbacks
    seed: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        require_positive(self.max_episodes, "max_episodes")
        require_positive(self.steps_per_episode, "steps_per_episode")
        require_positive(self.episodes_per_update, "episodes_per_update")
        require_in_range(self.convergence_threshold, 0.0, 1.0, "convergence_threshold")
        require_positive(self.stagnation_episodes, "stagnation_episodes")


@dataclass
class TrainingResult:
    """Outcome of one training run."""

    episode_rewards: np.ndarray
    best_reward: float
    best_episode: int
    converged: bool
    convergence_episode: int | None
    episodes_run: int
    wall_seconds: float
    best_state: dict
    max_episode_reward: float
    steps_per_episode: int = 10
    #: environment steps actually taken; 0 in results from older checkpoints,
    #: in which case the legacy ``episodes × M`` estimate is used.
    total_steps: int = 0

    @property
    def simulated_seconds(self) -> float:
        """Virtual seconds of transfer the training consumed (1 s per step).

        Counts the steps the loop actually took — episodes ending early on
        ``done`` used to be billed for their full ``steps_per_episode``,
        overstating the simulated budget (and the online-cost estimate
        derived from it).
        """
        if self.total_steps:
            return float(self.total_steps)
        return float(self.episodes_run * self.steps_per_episode)

    def online_training_estimate(self, seconds_per_step: float = 3.0) -> float:
        """What the same training would cost *online*, in seconds (§IV).

        The paper estimates 3 s per online iteration: an online run of the
        same step budget would take ``steps × 3`` seconds (their 450,000 s
        ≈ 5 days for 15,000 × 10-step episodes).
        """
        return self.simulated_seconds * seconds_per_step


class ConvergenceTracker:
    """One agent's Algorithm-2 bookkeeping: rewards, best checkpoint, stop rule.

    Both the scalar loop (:func:`train`) and the batched population loop
    (:func:`repro.core.population.train_population`) book every finished
    episode here, so the best-checkpoint rule and the stop criterion exist
    once.  Episodes are numbered by arrival: the ``i``-th recorded episode
    is episode ``i``.
    """

    def __init__(self, agent: PPOAgent, cfg: TrainingConfig, r_max: float) -> None:
        self.agent = agent
        self.r_max = r_max
        self.target = cfg.convergence_threshold * r_max
        self.stagnation_episodes = cfg.stagnation_episodes
        self.steps_per_episode = cfg.steps_per_episode
        self.rewards: list[float] = []
        self.best_reward = -np.inf
        self.best_episode = -1
        self.best_state = agent.state_dict()
        self.stagnant = 0
        self.convergence_episode: int | None = None
        self.total_steps = 0

    def record(self, reward: float, steps: int) -> bool:
        """Book one finished episode of ``steps`` steps; True once training
        should stop — the paper's criterion: the target reached *and*
        ``stagnation_episodes`` episodes of refinement without improvement.
        """
        episode = len(self.rewards)
        self.rewards.append(reward)
        self.total_steps += steps
        if reward > self.best_reward:
            self.best_reward = reward
            self.best_episode = episode
            self.best_state = self.agent.state_dict()
            self.stagnant = 0
        else:
            self.stagnant += 1
        reached = self.best_reward >= self.target
        if reached and self.convergence_episode is None:
            self.convergence_episode = episode
        return reached and self.stagnant >= self.stagnation_episodes

    def result(self, wall_seconds: float) -> TrainingResult:
        """The run's :class:`TrainingResult`.

        A budget exhausted after reaching the target but before the full
        stagnation wait still leaves a usable model, so reaching the target
        is what flags convergence.
        """
        return TrainingResult(
            episode_rewards=np.asarray(self.rewards),
            best_reward=float(self.best_reward),
            best_episode=self.best_episode,
            converged=bool(self.best_reward >= self.target),
            convergence_episode=self.convergence_episode,
            episodes_run=len(self.rewards),
            wall_seconds=wall_seconds,
            best_state=self.best_state,
            max_episode_reward=self.r_max,
            steps_per_episode=self.steps_per_episode,
            total_steps=self.total_steps,
        )


def train(
    agent: PPOAgent,
    env,
    config: TrainingConfig | None = None,
    *,
    max_episode_reward: float | None = None,
    progress: Callable[[int, float, float], None] | None = None,
) -> TrainingResult:
    """Run Algorithm 2: train ``agent`` on ``env`` until convergence.

    Parameters
    ----------
    max_episode_reward:
        The theoretical episode reward ``R_max`` for the convergence check.
        Defaults to ``steps_per_episode × 1.0``, correct for environments
        that normalize per-step rewards by the per-step ``R_max``.
    progress:
        Optional callback ``(episode, episode_reward, best_reward)`` invoked
        every ``config.log_every`` episodes.
    """
    cfg = config or TrainingConfig()
    r_max = (
        float(max_episode_reward)
        if max_episode_reward is not None
        else float(cfg.steps_per_episode)
    )
    with obs.span(
        "train/offline",
        max_episodes=cfg.max_episodes,
        steps_per_episode=cfg.steps_per_episode,
        r_max=r_max,
    ):
        return _train_loop(agent, env, cfg, r_max, progress)


def _train_loop(
    agent: PPOAgent,
    env,
    cfg: TrainingConfig,
    r_max: float,
    progress: Callable[[int, float, float], None] | None,
) -> TrainingResult:
    sess = obs.active()
    tracker = ConvergenceTracker(agent, cfg, r_max)
    started = time.perf_counter()

    agent.memory.clear()
    for episode in range(cfg.max_episodes):
        state = env.reset()
        episode_reward = 0.0
        steps = 0
        for _ in range(cfg.steps_per_episode):
            action, log_prob = agent.act(state)
            next_state, reward, done, _info = env.step(action)
            agent.memory.store(state, action, log_prob, reward)
            state = next_state
            episode_reward += reward
            steps += 1
            if done:
                break
        agent.memory.end_episode(agent.config.gamma)
        # One PPO update per `episodes_per_update` collected episodes (=1
        # reproduces Algorithm 2 literally; the batched default trades a
        # slightly staler policy for far less gradient noise per update).
        if (episode + 1) % cfg.episodes_per_update == 0:
            agent.set_lr_progress(episode / cfg.max_episodes)
            agent.update()
            agent.memory.clear()

        stop = tracker.record(episode_reward, steps)
        if sess is not None:
            # Reward vs R_max per episode — the convergence curve (§IV-E).
            sess.sample(
                "train/episode",
                t=float(episode),
                reward=episode_reward,
                reward_fraction=episode_reward / r_max if r_max else 0.0,
                best_reward=tracker.best_reward,
            )
            sess.count("train/episodes")
        if progress is not None and cfg.log_every and episode % cfg.log_every == 0:
            progress(episode, episode_reward, tracker.best_reward)
        if stop:
            break

    return tracker.result(time.perf_counter() - started)
