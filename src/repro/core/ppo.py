"""The PPO agent (Algorithm 2's actor-critic update).

Faithful to the paper's loss:

* discounted returns ``G_t = r_t + γ G_{t+1}``;
* advantages ``A_t = G_t − V_φ(s_t)`` (no GAE);
* clipped surrogate ``−min(r_t A_t, clip(r_t, 1−ε, 1+ε) A_t)``;
* critic term ``0.5 · MSE(G_t, V_φ(s_t))``;
* entropy bonus ``−0.1 · entropy``;
* a single Adam optimizer over both networks.  π_old is the policy that
  collected the rollout: its log-probs are stored with each transition, so
  no second policy network is kept.

Deviations exposed as configuration (see EXPERIMENTS.md for the study):

* ``update_epochs`` (default 4): the paper does one gradient pass per
  episode, where the ratio against the collecting policy starts at 1
  and the clip is inert; re-walking the batch makes the clip active and
  converges in fewer episodes.  Set 1 for the literal behaviour.
* ``entropy_coef`` (default 1e-3): the paper's 0.1 applies to *raw-utility*
  rewards in the thousands of Mbps; our environments normalize rewards by
  ``R_max`` to O(1), so the equivalent relative weight is ~1e-3.  Using 0.1
  at normalized scale freezes σ near its init and stalls convergence.
* ``gamma`` (default 0.5): Algorithm 2 leaves γ unspecified.  The 8-dim
  state carries no time-to-go, so with γ near 1 the finite-horizon returns
  alias states and swamp advantages with time-structured noise; moderate
  discounting matches the mostly-immediate reward structure of the task.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.autograd.tensor import Tensor, clip, exp, minimum
from repro.core.networks import PolicyNetwork, ValueNetwork
from repro.nn.module import Module, Parameter
from repro.nn.optim import Adam, clip_grad_norm
from repro.nn.plan import PolicyPlan
from repro.utils.config import require_in_range, require_positive
from repro.utils.rng import as_generator


@dataclass(frozen=True)
class PPOConfig:
    """Hyper-parameters of Algorithm 2."""

    learning_rate: float = 2e-3
    final_learning_rate: float = 1e-4  # linear decay target; set equal to learning_rate to disable
    gamma: float = 0.5
    clip_epsilon: float = 0.2
    entropy_coef: float = 1e-3
    critic_coef: float = 1.0  # multiplies the 0.5·MSE critic term
    update_epochs: int = 4
    max_grad_norm: float = 0.5
    hidden_dim: int = 256
    policy_blocks: int = 3
    value_blocks: int = 2
    log_std_init: float = -1.0
    log_std_range: tuple[float, float] = (-4.0, 0.5)
    normalize_advantages: bool = True

    def __post_init__(self) -> None:
        require_positive(self.learning_rate, "learning_rate")
        require_in_range(self.gamma, 0.0, 1.0, "gamma")
        require_in_range(self.clip_epsilon, 0.0, 1.0, "clip_epsilon")
        require_positive(self.update_epochs, "update_epochs")
        require_positive(self.hidden_dim, "hidden_dim")


class RolloutMemory:
    """Episode storage ``M`` of (state, action, log-prob, reward).

    Holds one *or more* complete episodes between updates; call
    :meth:`end_episode` at each episode boundary so discounted returns never
    bleed across episodes.
    """

    def __init__(self) -> None:
        self.states: list[np.ndarray] = []
        self.actions: list[np.ndarray] = []
        self.log_probs: list[float] = []
        self.rewards: list[float] = []
        self.returns: list[float] = []
        self._episode_start = 0

    def store(self, state: np.ndarray, action: np.ndarray, log_prob: float, reward: float) -> None:
        """Append one transition."""
        self.states.append(np.asarray(state, dtype=float))
        self.actions.append(np.asarray(action, dtype=float))
        self.log_probs.append(float(log_prob))
        self.rewards.append(float(reward))

    def end_episode(self, gamma: float) -> None:
        """Convert the rewards of the just-finished episode into returns."""
        segment = np.asarray(self.rewards[self._episode_start:])
        self.returns.extend(discounted_returns(segment, gamma).tolist())
        self._episode_start = len(self.rewards)

    def clear(self) -> None:
        """Drop all stored transitions (after an update)."""
        self.states.clear()
        self.actions.clear()
        self.log_probs.clear()
        self.rewards.clear()
        self.returns.clear()
        self._episode_start = 0

    def __len__(self) -> int:
        return len(self.states)

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Batched ``(states, actions, old_log_probs, returns)``.

        Any trailing episode without an :meth:`end_episode` call is closed
        implicitly with ``gamma`` unavailable — callers must end episodes
        first; a mismatch raises.
        """
        if len(self.returns) != len(self.rewards):
            raise RuntimeError(
                "end_episode() must be called after every episode before update()"
            )
        return (
            np.stack(self.states),
            np.stack(self.actions),
            np.asarray(self.log_probs),
            np.asarray(self.returns),
        )


def discounted_returns(rewards: np.ndarray, gamma: float) -> np.ndarray:
    """``G_t = r_t + γ G_{t+1}`` computed right-to-left."""
    rewards = np.asarray(rewards, dtype=float)
    returns = np.empty_like(rewards, dtype=float)
    running = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        running = rewards[t] + gamma * running
        returns[t] = running
    return returns


def autograd_ppo_update(
    policy_terms: Callable[[np.ndarray, np.ndarray], tuple[Tensor, Tensor]],
    value: Module,
    optimizer: Adam,
    memory: RolloutMemory,
    config: PPOConfig,
) -> dict[str, float]:
    """Algorithm 2's update over ``memory`` through the autograd graph.

    ``policy_terms(states, actions)`` returns the policy's log-probs of the
    stored actions and its scalar entropy, as Tensors.  Each epoch takes one
    clipped, ``optimizer`` step on the loss; returns the last epoch's
    diagnostics, including the PPO health signals ``approx_kl`` and
    ``clip_fraction``.  The discrete agents train through it; with the
    Gaussian policy's terms it is the stacked engine's oracle (DESIGN §17).
    """
    cfg = config
    states, actions, old_log_probs, returns = memory.arrays()
    returns_t = Tensor(returns)

    stats: dict[str, float] = {}
    for _ in range(cfg.update_epochs):
        log_probs, entropy = policy_terms(states, actions)

        values = value(states)
        advantages = returns - values.data  # A_t = G_t - V(s_t), no grad into actor
        if cfg.normalize_advantages and len(advantages) > 1:
            advantages = (advantages - advantages.mean()) / (advantages.std() + 1e-8)
        advantages_t = Tensor(advantages)

        ratio = exp(log_probs - Tensor(old_log_probs))
        surr1 = ratio * advantages_t
        surr2 = clip(ratio, 1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon) * advantages_t
        actor_loss = -minimum(surr1, surr2).mean()

        diff = values - returns_t
        critic_loss = (diff * diff).mean() * 0.5

        loss = actor_loss + critic_loss * cfg.critic_coef - entropy * cfg.entropy_coef

        optimizer.zero_grad()
        loss.backward()
        clip_grad_norm(optimizer.parameters, cfg.max_grad_norm)
        optimizer.step()

        ratio_data = np.asarray(ratio.data)
        stats = {
            "loss": loss.item(),
            "actor_loss": actor_loss.item(),
            "critic_loss": critic_loss.item(),
            "entropy": float(entropy.data),
            "mean_ratio": float(ratio_data.mean()),
            "mean_return": float(returns.mean()),
            # Mean(log π_old − log π): the standard cheap KL(π_old ‖ π)
            # estimate; grows as the update walks away from π_old.
            "approx_kl": float(np.mean(old_log_probs - np.asarray(log_probs.data))),
            "clip_fraction": float(
                np.mean(np.abs(ratio_data - 1.0) > cfg.clip_epsilon)
            ),
        }

    return stats


def annealed_lr(config: PPOConfig, fraction: float) -> float:
    """The learning rate ``fraction`` (clamped to [0, 1]) along the linear decay."""
    fraction = min(1.0, max(0.0, fraction))
    return config.learning_rate + fraction * (
        config.final_learning_rate - config.learning_rate
    )


class ActorCritic:
    """What every PPO agent holds: ``policy`` and ``value`` networks, a
    ``config``, and the learning rate ``lr`` of its next update."""

    def parameters(self) -> list[Parameter]:
        """Policy then value parameters, depth-first: the update's order."""
        return self.policy.parameters() + self.value.parameters()

    def set_lr_progress(self, fraction: float) -> None:
        """Linearly anneal the learning rate; ``fraction`` in [0, 1]."""
        self.lr = annealed_lr(self.config, fraction)

    def state_dict(self) -> dict:
        """All learnable state (policy + value)."""
        return {"policy": self.policy.state_dict(), "value": self.value.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        """Restore from :meth:`state_dict` output."""
        self.policy.load_state_dict(state["policy"])
        self.value.load_state_dict(state["value"])


class PPOAgent(ActorCritic):
    """Actor-critic PPO over the 8-dim concurrency state space.

    :meth:`update` runs the stacked engine
    (:class:`~repro.nn.stacked.StackedPPOAgent`): a lone agent builds a
    K=1 stack over its own parameters at its first update; a population
    member updates its row of the population's stack.
    """

    def __init__(
        self,
        state_dim: int = 8,
        action_dim: int = 3,
        config: PPOConfig | None = None,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        self.config = config or PPOConfig()
        self.rng = as_generator(rng)
        cfg = self.config
        self.policy = PolicyNetwork(
            state_dim,
            action_dim,
            cfg.hidden_dim,
            cfg.policy_blocks,
            log_std_init=cfg.log_std_init,
            log_std_range=cfg.log_std_range,
            rng=self.rng,
        )
        # The ratio's π_old is the stored rollout log-probs, so no second
        # policy network is built.  Its orthogonal init's draws (one
        # standard normal per Linear weight entry) are still consumed, so
        # value init, action noise and every recorded seeded fingerprint
        # stay unchanged.
        self.rng.normal(size=sum(
            p.size for name, p in self.policy.named_parameters()
            if name.rsplit(".", 1)[-1] == "weight"
        ))
        self.value = ValueNetwork(state_dim, cfg.hidden_dim, cfg.value_blocks, rng=self.rng)
        self.memory = RolloutMemory()
        #: Completed :meth:`update` calls — the x-axis of loss curves.
        self.updates = 0
        #: Adam learning rate of the next :meth:`update`.
        self.lr = cfg.learning_rate
        # The stacked engine holding this agent's parameters and Adam
        # moments (a weak reference to a population's engine, which owns
        # this agent), and this agent's row in it; bound by the engine.
        self._stack_link = None
        self._row = 0
        # Compiled zero-Tensor inference plan.  It dereferences
        # ``param.data`` at call time, so in-place updates, load_state_dict,
        # and stacked-engine row-view rebinds all stay visible without
        # invalidation.
        self._policy_plan = PolicyPlan(self.policy)

    # ----------------------------------------------------------------- acting
    def act(self, state: np.ndarray, *, deterministic: bool = False) -> tuple[np.ndarray, float]:
        """Sample an action (Algorithm 2 lines 8–9); returns ``(action, log_prob)``.

        ``state`` is one ``(state_dim,)`` state; it runs through the compiled
        zero-Tensor inference plan, bit-identical to the Tensor forward (see
        :mod:`repro.nn.plan`).  Any other shape raises :class:`ValueError`;
        populations act through :meth:`StackedPPOAgent.act_all
        <repro.nn.stacked.StackedPPOAgent.act_all>`.
        """
        state = np.asarray(state, dtype=float)
        return self._policy_plan.act(state, self.rng, deterministic=deterministic)

    @property
    def _stack(self):
        """The stacked engine holding this agent's parameters, or ``None``
        before the first update of an agent outside any population."""
        link = self._stack_link
        if type(link) is not weakref.ref:
            return link
        stack = link()
        if stack is None:
            raise RuntimeError(
                "this agent's population engine, which held its Adam moments, was freed"
            )
        return stack

    # ----------------------------------------------------------------- update
    def update(self) -> dict[str, float]:
        """One Algorithm-2 update over the episode stored in ``self.memory``.

        Returns the diagnostics of :func:`autograd_ppo_update`, to which the
        stacked engine is bit-identical.  The memory is left intact; callers
        clear it when starting the next episode.  Under an active
        observability session the update runs in a ``ppo/update`` span and
        every diagnostic is emitted as a metric series keyed by update index.
        """
        if self._stack is None:
            from repro.nn.stacked import StackedPPOAgent  # imports this module

            StackedPPOAgent.from_agents([self])
        with obs.span("ppo/update", transitions=len(self.memory)):
            (stats,) = self._stack.update_rows([self._row], self.lr)
        self.record_update(stats)
        return stats

    def record_update(self, stats: dict[str, float]) -> None:
        """Count one update and emit its ``ppo/<key>`` series at ``t=updates``."""
        self.updates += 1
        sess = obs.active()
        if sess is not None:
            for key, value in stats.items():
                sess.metric(f"ppo/{key}", value, t=float(self.updates))
