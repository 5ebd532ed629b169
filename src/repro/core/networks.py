"""The AutoMDT policy and value networks, §IV-D3/4.

Policy (actor): input → Linear(→256) → tanh → 3 × residual blocks
(Linear/LayerNorm/ReLU ×2 + skip) → tanh → Linear(→3) for the action mean;
a learnable log-standard-deviation vector, clamped to a sane range, is
exponentiated to give the Gaussian's σ.

Value (critic): input → Linear(→256) → tanh → 2 × Tanh residual blocks
(plain linear, no LayerNorm) → Linear(→1).
"""

from __future__ import annotations

import numpy as np

from repro.autograd.tensor import Tensor, clip, tanh
from repro.nn.distributions import DiagonalGaussian
from repro.nn.layers import Linear, Sequential, Tanh
from repro.nn.module import Module, Parameter
from repro.nn.residual import ResidualBlock
from repro.utils.rng import as_generator


class PolicyTrunk(Module):
    """The policies' shared body: input → Linear → tanh → ReLU + LayerNorm
    residual blocks → tanh.  Subclasses add their heads."""

    def __init__(
        self, state_dim: int, hidden_dim: int, num_blocks: int, rng: np.random.Generator
    ) -> None:
        super().__init__()
        self.state_dim = state_dim
        self.embed = Linear(state_dim, hidden_dim, rng=rng)
        self.blocks = Sequential(
            *(ResidualBlock(hidden_dim, activation="relu", layer_norm=True, rng=rng)
              for _ in range(num_blocks))
        )

    def features(self, states) -> Tensor:
        """Trunk output for (batched or single) ``states``."""
        x = states if isinstance(states, Tensor) else Tensor(np.asarray(states, dtype=float))
        return tanh(self.blocks(tanh(self.embed(x))))


class PolicyNetwork(PolicyTrunk):
    """Gaussian policy with residual trunk (the actor)."""

    def __init__(
        self,
        state_dim: int = 8,
        action_dim: int = 3,
        hidden_dim: int = 256,
        num_blocks: int = 3,
        *,
        log_std_init: float = -1.0,
        log_std_range: tuple[float, float] = (-4.0, 0.5),
        mean_center: float = 0.5,
        mean_span: float = 0.75,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        rng = as_generator(rng)
        super().__init__(state_dim, hidden_dim, num_blocks, rng)
        self.action_dim = action_dim
        self.log_std_range = log_std_range
        self.mean_center = mean_center
        self.mean_span = mean_span
        self.mean_head = Linear(hidden_dim, action_dim, rng=rng, gain=0.01)
        self.log_std = Parameter(np.full(action_dim, float(log_std_init)), name="log_std")

    def forward(self, states) -> DiagonalGaussian:
        """Map (batched or single) states to an action distribution.

        The mean is squashed to ``center ± span`` with a tanh: an unbounded
        linear mean combined with action clamping lets the mean random-walk
        far past the boundary where the reward surface is flat (the policy
        then takes thousands of episodes to walk back).  Bounding it to just
        beyond the valid normalized action range removes that failure mode
        while keeping the paper's architecture otherwise intact.
        """
        mean = tanh(self.mean_head(self.features(states))) * self.mean_span + self.mean_center
        log_std = clip(self.log_std, *self.log_std_range)
        return DiagonalGaussian(mean, log_std)


class ValueNetwork(Module):
    """State-value estimator with Tanh residual trunk (the critic)."""

    def __init__(
        self,
        state_dim: int = 8,
        hidden_dim: int = 256,
        num_blocks: int = 2,
        *,
        rng: int | np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = as_generator(rng)
        self.state_dim = state_dim
        self.embed = Linear(state_dim, hidden_dim, rng=rng)
        self.trunk = Sequential(
            Tanh(),
            *(ResidualBlock(hidden_dim, activation="tanh", layer_norm=False, rng=rng)
              for _ in range(num_blocks)),
        )
        self.head = Linear(hidden_dim, 1, rng=rng, gain=1.0)

    def forward(self, states) -> Tensor:
        """Estimated return per state; shape ``(batch,)`` (or scalar)."""
        x = states if isinstance(states, Tensor) else Tensor(np.asarray(states, dtype=float))
        x = self.trunk(self.embed(x))
        out = self.head(x)
        if out.ndim >= 1 and out.shape[-1] == 1:
            squeezed_shape = out.shape[:-1] if out.ndim > 1 else ()
            out = out.reshape(*squeezed_shape) if squeezed_shape else out.reshape(1)[0]
        return out
