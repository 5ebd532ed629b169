"""The autograd oracle for the stacked PPO engine.

:class:`AutogradPPOAgent` is a :class:`~repro.core.ppo.PPOAgent` whose
update runs :func:`~repro.core.ppo.autograd_ppo_update` over the Gaussian
policy's terms with its own :class:`~repro.nn.optim.Adam`, instead of the
stacked engine.  Built with the same seed as an engine-backed agent and fed
the same rollouts, it must agree with the engine bit for bit.
"""

from __future__ import annotations

from repro.core.ppo import PPOAgent, autograd_ppo_update
from repro.nn.optim import Adam


class AutogradPPOAgent(PPOAgent):
    """A PPOAgent updated through the autograd reference step."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.optimizer = Adam(self.parameters(), lr=self.lr)

    def update(self) -> dict[str, float]:
        self.optimizer.lr = self.lr
        stats = autograd_ppo_update(
            self._gaussian_terms, self.value, self.optimizer, self.memory, self.config
        )
        self.updates += 1
        return stats

    def _gaussian_terms(self, states, actions):
        dist = self.policy(states)
        return dist.log_prob(actions), dist.entropy()
