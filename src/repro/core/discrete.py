"""Discrete-action PPO variants (§V-A, Fig. 4).

The paper experimented with a discrete action space and reports that it
"failed miserably" — "each additional parameter increases the search space
exponentially" (§IV).  Two designs are implemented:

* :class:`JointDiscretePPOAgent` — one Categorical over all ``n_max³``
  thread triples: the naive exponential action space the paper's remark
  describes.  This is the variant that fails (see
  ``benchmarks/bench_figure4.py``): a flat softmax over tens of thousands
  of unordered actions cannot exploit the ordinal structure of thread
  counts, so exploration stalls.
* :class:`DiscretePPOAgent` — three *factorized* Categorical heads (one per
  stage).  Interestingly, this smarter discretization **does** converge
  under our training loop — a reproduction finding recorded in
  EXPERIMENTS.md: the failure is a property of the joint design, not of
  discreteness per se.
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.core.networks import PolicyTrunk, ValueNetwork
from repro.core.ppo import ActorCritic, PPOConfig, RolloutMemory, autograd_ppo_update
from repro.nn.distributions import Categorical
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.optim import Adam
from repro.utils.rng import as_generator


def _decode_joint(index, max_threads: int) -> np.ndarray:
    """Flat joint action index → (n_r, n_n, n_w) thread triple (1-based)."""
    index = np.asarray(index, dtype=int)
    n = int(max_threads)
    return np.stack([index // (n * n) + 1, (index // n) % n + 1, index % n + 1], axis=-1)


class DiscretePolicyNetwork(PolicyTrunk):
    """Shared residual trunk with three Categorical heads (read/net/write)."""

    def __init__(
        self,
        state_dim: int = 8,
        max_threads: int = 30,
        hidden_dim: int = 256,
        num_blocks: int = 3,
        *,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        rng = as_generator(rng)
        super().__init__(state_dim, hidden_dim, num_blocks, rng)
        self.max_threads = int(max_threads)
        self.head_read = Linear(hidden_dim, self.max_threads, rng=rng, gain=0.01)
        self.head_network = Linear(hidden_dim, self.max_threads, rng=rng, gain=0.01)
        self.head_write = Linear(hidden_dim, self.max_threads, rng=rng, gain=0.01)

    def forward(self, states) -> tuple[Categorical, Categorical, Categorical]:
        """Three independent categorical distributions over ``1..n_max``.

        Category index ``i`` means ``i + 1`` threads.
        """
        x = self.features(states)
        return (
            Categorical(self.head_read(x)),
            Categorical(self.head_network(x)),
            Categorical(self.head_write(x)),
        )


class DiscretePPOAgent(ActorCritic):
    """PPO over the categorical action space; drop-in for training loops.

    Actions are integer triples of *category indices* (0-based); the
    environment adapter must add 1 to get thread counts — use
    :class:`DiscreteActionAdapter`.  The update is
    :func:`~repro.core.ppo.autograd_ppo_update` over the policy's joint
    (summed) log-probs; :class:`JointDiscretePPOAgent` swaps only the
    policy network and how :meth:`act` samples.
    """

    policy_class: type[Module] = DiscretePolicyNetwork

    def __init__(
        self,
        state_dim: int = 8,
        max_threads: int = 30,
        config: PPOConfig | None = None,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        self.config = config or PPOConfig()
        self.rng = as_generator(rng)
        cfg = self.config
        self.max_threads = int(max_threads)
        self.policy = self.policy_class(
            state_dim, max_threads, cfg.hidden_dim, cfg.policy_blocks, rng=self.rng
        )
        self.value = ValueNetwork(state_dim, cfg.hidden_dim, cfg.value_blocks, rng=self.rng)
        self.lr = cfg.learning_rate
        self.optimizer = Adam(self.parameters(), lr=self.lr)
        self.memory = RolloutMemory()

    def act(self, state: np.ndarray, *, deterministic: bool = False) -> tuple[np.ndarray, float]:
        """Sample a category triple; returns ``(indices, joint log_prob)``."""
        with no_grad():
            dists = self.policy(np.asarray(state, dtype=float))
            if deterministic:
                idx = np.array([int(d.mode()) for d in dists])
            else:
                idx = np.array([int(d.sample(self.rng)) for d in dists])
            log_prob = sum(float(d.log_prob(i).data) for d, i in zip(dists, idx))
        return idx, float(log_prob)

    def update(self) -> dict[str, float]:
        """One PPO update over the stored rollout (autograd)."""
        self.optimizer.lr = self.lr
        return autograd_ppo_update(
            self._policy_terms, self.value, self.optimizer, self.memory, self.config
        )

    def _policy_terms(self, states: np.ndarray, actions: np.ndarray) -> tuple[Tensor, Tensor]:
        """Summed per-head log-probs of ``actions`` and the mean summed entropy."""
        actions = actions.astype(int)
        dists = self.policy(states)
        log_probs = (
            dists[0].log_prob(actions[:, 0])
            + dists[1].log_prob(actions[:, 1])
            + dists[2].log_prob(actions[:, 2])
        )
        entropy = (dists[0].entropy() + dists[1].entropy() + dists[2].entropy()).mean()
        return log_probs, entropy


class JointDiscretePolicyNetwork(PolicyTrunk):
    """Single Categorical head over every ``n_max³`` thread triple."""

    def __init__(
        self,
        state_dim: int = 8,
        max_threads: int = 30,
        hidden_dim: int = 256,
        num_blocks: int = 3,
        *,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        num_actions = int(max_threads) ** 3
        if num_actions > 2**19:
            raise ValueError(
                f"joint discrete space of {num_actions} actions is too large; "
                "use the factorized DiscretePolicyNetwork"
            )
        rng = as_generator(rng)
        super().__init__(state_dim, hidden_dim, num_blocks, rng)
        self.max_threads = int(max_threads)
        self.num_actions = num_actions
        self.head = Linear(hidden_dim, self.num_actions, rng=rng, gain=0.01)

    def forward(self, states) -> Categorical:
        """One categorical over all triples; index ``i`` decodes via :meth:`decode`."""
        return Categorical(self.head(self.features(states)))

    def decode(self, index) -> np.ndarray:
        """Flat action index → (n_r, n_n, n_w) thread triple (1-based)."""
        return _decode_joint(index, self.max_threads)


class JointDiscretePPOAgent(DiscretePPOAgent):
    """PPO over the joint (exponential) discrete action space."""

    policy_class = JointDiscretePolicyNetwork

    def act(self, state: np.ndarray, *, deterministic: bool = False) -> tuple[np.ndarray, float]:
        """Sample a flat action index; returns ``([index], log_prob)``."""
        with no_grad():
            dist = self.policy(np.asarray(state, dtype=float))
            idx = int(dist.mode()) if deterministic else int(dist.sample(self.rng))
            log_prob = float(dist.log_prob(idx).data)
        return np.array([idx]), log_prob

    def _policy_terms(self, states: np.ndarray, actions: np.ndarray) -> tuple[Tensor, Tensor]:
        """Log-probs of the flat ``actions`` and the mean entropy."""
        dist = self.policy(states)
        return dist.log_prob(actions.astype(int).reshape(-1)), dist.entropy().mean()


class _DirectThreadsAdapter:
    """Env wrapper stepping the env in ``direct`` mode on decoded thread counts."""

    def __init__(self, env) -> None:
        self.env = env
        self.state_dim = env.state_dim

    def reset(self) -> np.ndarray:
        """Delegate to the wrapped environment."""
        return self.env.reset()

    def step(self, action) -> tuple[np.ndarray, float, bool, dict]:
        """Step the env on :meth:`_threads` of ``action``."""
        threads = self._threads(action)
        previous_mode = self.env.action_mode
        self.env.action_mode = "direct"
        try:
            return self.env.step(threads)
        finally:
            self.env.action_mode = previous_mode


class JointDiscreteActionAdapter(_DirectThreadsAdapter):
    """Env wrapper: flat joint indices become thread triples."""

    def __init__(self, env, max_threads: int) -> None:
        super().__init__(env)
        self.max_threads = int(max_threads)
        self.action_dim = 1

    def _threads(self, action) -> np.ndarray:
        return _decode_joint(np.asarray(action).reshape(-1)[0], self.max_threads).astype(float)


class DiscreteActionAdapter(_DirectThreadsAdapter):
    """Wraps an env so category indices (0-based) become thread counts.

    Lets :func:`repro.core.training.train` drive a :class:`DiscretePPOAgent`
    unchanged: the adapter forces ``action_mode`` semantics of
    ``threads = index + 1``.
    """

    def __init__(self, env) -> None:
        super().__init__(env)
        self.action_dim = env.action_dim

    def _threads(self, action) -> np.ndarray:
        return (np.asarray(action, dtype=int) + 1).astype(float)
