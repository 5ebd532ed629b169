"""Population training: K agents on K scenario variants, best-by-eval.

The paper trains one agent on one exploration-derived scenario.  A
population run hedges that choice: each member trains on its own
:class:`~repro.simulator.config.SimulatorConfig` variant (e.g. perturbed
throttle estimates, different buffer provisioning) with fully independent
RNG streams, every trained member is evaluated with a deterministic policy
on its own scenario, and the best evaluation reward wins.

Members are independent, so the population fans out over
:class:`repro.parallel.ParallelMap` — member seeds come from
:func:`repro.parallel.seeds.derive_seed`, a pure function of the root seed
and the member index, which makes ``workers=K`` bit-identical to
``workers=1``.

``batched=True`` selects a third, in-process execution mode: all members
step one :class:`repro.core.batched_env.BatchedEnv` together, and a
:class:`~repro.nn.stacked.StackedPPOAgent` acts for and updates all of
them at once.  Each member is a :class:`~repro.core.env.SimulatorEnv`
whose simulator is a column of one
:class:`~repro.simulator.batch.BatchedSimulator`, so its simulated second,
state, action mapping and reward are the scalar environment's own.  The
batched path derives the same per-member seed streams and replays the
same per-member call sequence as ``_train_member``, so its results are
bit-identical to ``workers=1`` (and therefore to any worker count).
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.env import SimulatorEnv
from repro.core.ppo import PPOAgent, PPOConfig
from repro.core.training import (
    ConvergenceTracker,
    TrainingConfig,
    TrainingResult,
    train,
)
from repro.parallel import ParallelMap, derive_seed
from repro.simulator.config import SimulatorConfig

__all__ = ["PopulationMember", "PopulationResult", "train_population"]


@dataclass
class PopulationMember:
    """One trained member of the population."""

    index: int
    config: SimulatorConfig
    seed: int
    training: TrainingResult
    eval_reward: float


@dataclass
class PopulationResult:
    """All members plus the evaluation winner."""

    members: list[PopulationMember]
    best_index: int

    @property
    def best(self) -> PopulationMember:
        return self.members[self.best_index]

    def eval_rewards(self) -> list[float]:
        return [m.eval_reward for m in self.members]


def _evaluate(
    agent: PPOAgent, env: SimulatorEnv, episodes: int
) -> float:
    """Mean deterministic episode reward of the *best* training checkpoint."""
    total = 0.0
    for _ in range(episodes):
        state = env.reset()
        for _ in range(env.episode_steps):
            action, _lp = agent.act(state, deterministic=True)
            state, reward, done, _info = env.step(action)
            total += reward
            if done:
                break
    return total / episodes


def _train_member(payload, seed: int) -> tuple[TrainingResult, float]:
    """Train + evaluate one member; runs inside a pool worker.

    ``seed`` is the pool-derived member seed; the env / agent / eval RNG
    streams are split from it with :func:`derive_seed` so they stay
    decorrelated yet reproducible from (root_seed, index) alone.
    """
    index, config, training_config, ppo_config, eval_episodes = payload
    del index  # identification only; determinism comes from ``seed``
    env = SimulatorEnv(config, rng=derive_seed(seed, 0))
    agent = PPOAgent(
        env.state_dim, env.action_dim, ppo_config, rng=derive_seed(seed, 1)
    )
    result = train(agent, env, training_config)

    agent.load_state_dict(result.best_state)
    eval_env = SimulatorEnv(config, rng=derive_seed(seed, 2))
    eval_reward = _evaluate(agent, eval_env, eval_episodes)
    return result, eval_reward


def _train_population_batched(
    variants: Sequence[SimulatorConfig],
    *,
    root_seed: int,
    training_config: TrainingConfig,
    ppo_config: PPOConfig,
    eval_episodes: int,
) -> PopulationResult:
    """All members training in lockstep on one population simulator.

    Replays ``_train_member``'s exact call sequence per member — same
    derived seed streams, same per-episode act/store/update cadence, same
    convergence bookkeeping — with the K scalar environments stepped
    together by one :class:`BatchedEnv` call per step and the K per-member
    networks fused into one :class:`~repro.nn.stacked.StackedPPOAgent`
    (one ``np.matmul`` per layer for the whole population's acting *and*
    updating, bit-identical per member — see DESIGN §17).  Members that
    stop early (converged + stagnant) keep their column idle: no further
    RNG draws, no stored transitions.
    """
    from repro.core.batched_env import BatchedEnv
    from repro.nn.stacked import StackedPPOAgent

    n = len(variants)
    cfg = training_config
    seeds = [derive_seed(root_seed, i) for i in range(n)]
    env = BatchedEnv(variants, rngs=[derive_seed(s, 0) for s in seeds])
    stacked = StackedPPOAgent(
        env.state_dim, env.action_dim, ppo_config,
        rngs=[derive_seed(s, 1) for s in seeds],
    )
    agents = stacked.members
    trackers = [
        ConvergenceTracker(agent, cfg, float(cfg.steps_per_episode)) for agent in agents
    ]
    active = np.ones(n, dtype=bool)
    started = time.perf_counter()

    for agent in agents:
        agent.memory.clear()
    steps = min(cfg.steps_per_episode, env.episode_steps)
    actions = np.zeros((n, 3))
    for episode in range(cfg.max_episodes):
        if not active.any():
            break
        states = env.reset_all(mask=active)
        episode_rewards = np.zeros(n)
        member_actions: list = [None] * n
        log_probs = [0.0] * n
        for _ in range(steps):
            # One stacked forward for the whole population; inactive rows
            # are discarded (no RNG draws happen for them).
            acts, lps = stacked.act_all(states, active=active)
            for i in np.flatnonzero(active):
                member_actions[i] = acts[i].copy()
                log_probs[i] = float(lps[i])
                actions[i] = member_actions[i]
            next_states, step_rewards, _done, _info = env.step_all(actions)
            for i in np.flatnonzero(active):
                agents[i].memory.store(
                    states[i], member_actions[i], log_probs[i], float(step_rewards[i])
                )
            states = next_states
            episode_rewards += step_rewards
        for i in np.flatnonzero(active):
            agents[i].memory.end_episode(agents[i].config.gamma)
        if (episode + 1) % cfg.episodes_per_update == 0:
            stacked.set_lr_progress(episode / cfg.max_episodes)
            idx = np.flatnonzero(active)
            stacked.update_all(idx)
            for i in idx:
                agents[i].memory.clear()
        for i in np.flatnonzero(active):
            if trackers[i].record(float(episode_rewards[i]), steps):
                active[i] = False
    wall = time.perf_counter() - started
    env.simulator.export_telemetry()
    results = [tracker.result(wall) for tracker in trackers]

    # Evaluation: best checkpoints, deterministic policy, batched columns.
    eval_env = BatchedEnv(variants, rngs=[derive_seed(s, 2) for s in seeds])
    for i, agent in enumerate(agents):
        agent.load_state_dict(results[i].best_state)
    totals = np.zeros(n)
    for _ in range(int(eval_episodes)):
        states = eval_env.reset_all()
        for _ in range(eval_env.episode_steps):
            acts, _lps = stacked.act_all(states, deterministic=True)
            actions[:] = acts
            states, step_rewards, done, _info = eval_env.step_all(actions)
            totals += step_rewards
            if done:
                break
    eval_rewards = totals / int(eval_episodes)
    eval_env.simulator.export_telemetry()

    members = [
        PopulationMember(
            index=i,
            config=variants[i],
            seed=seeds[i],
            training=results[i],
            eval_reward=float(eval_rewards[i]),
        )
        for i in range(n)
    ]
    best_index = int(np.asarray(eval_rewards).argmax())
    return PopulationResult(members=members, best_index=best_index)


def train_population(
    variants: Sequence[SimulatorConfig],
    *,
    root_seed: int = 0,
    training_config: TrainingConfig | None = None,
    ppo_config: PPOConfig | None = None,
    eval_episodes: int = 8,
    workers: int = 1,
    timeout: float | None = None,
    retries: int = 0,
    batched: bool = False,
) -> PopulationResult:
    """Train one agent per scenario variant and pick the best by evaluation.

    ``workers`` follows :class:`ParallelMap` semantics (``0`` = all cores,
    ``1`` = serial).  Any member failing (crash, timeout) raises
    :class:`repro.parallel.ParallelMapError` — a population with silently
    missing members would bias the "best" selection.

    ``batched=True`` runs the whole population in-process on one
    population simulator (``workers``/``timeout``/``retries`` do not
    apply) — bit-identical results, one ``step_second`` call per
    population step.
    """
    if not variants:
        raise ValueError("need at least one scenario variant")
    training_config = training_config or TrainingConfig()
    ppo_config = ppo_config or PPOConfig()
    if batched:
        return _train_population_batched(
            list(variants),
            root_seed=root_seed,
            training_config=training_config,
            ppo_config=ppo_config,
            eval_episodes=eval_episodes,
        )

    payloads = [
        (i, config, training_config, ppo_config, int(eval_episodes))
        for i, config in enumerate(variants)
    ]
    pool = ParallelMap(
        _train_member,
        workers=workers,
        root_seed=root_seed,
        timeout=timeout,
        retries=retries,
    )
    outcomes = pool.map(payloads)
    failures = [o for o in outcomes if not o.ok]
    if failures:
        from repro.parallel import ParallelMapError

        raise ParallelMapError(failures)

    members = [
        PopulationMember(
            index=i,
            config=variants[i],
            seed=outcome.seed,
            training=outcome.value[0],
            eval_reward=float(outcome.value[1]),
        )
        for i, outcome in enumerate(outcomes)
    ]
    rewards = np.asarray([m.eval_reward for m in members])
    best_index = int(rewards.argmax())  # ties resolve to the lowest index
    return PopulationResult(members=members, best_index=best_index)
