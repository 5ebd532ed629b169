"""Compiled no-grad policy inference: zero-``Tensor`` single-state acting.

Rollout-time policy queries dominate PPO wall-clock, and under ``no_grad()``
the autograd :class:`~repro.autograd.tensor.Tensor` layer contributes nothing
but per-op Python dispatch and object churn: every ``act()`` still allocates
~50 ``Tensor`` wrappers for a graph that is never walked.  A
:class:`PolicyPlan` compiles a :class:`~repro.core.networks.PolicyNetwork`
once into a flat straight-line numpy program over the raw parameter arrays
with preallocated ping-pong buffers, so executing it allocates **zero Tensor
objects** (only the returned action array and a few tiny temporaries).

Bit-identity argument (DESIGN §17): every plan step performs *the same numpy
call on the same float64 values in the same order* as the Tensor forward it
replaces — ``np.matmul`` then in-place bias add (``a + b`` and
``np.add(a, b, out=...)`` are the same ufunc), ``np.tanh``, the fused
layernorm's exact mean/variance sequence (:func:`row_mean` is ``mean``'s
own sum and divide), ``np.clip`` for the log-std bound,
and ``np.where``-equivalent masking for ReLU (mask + ``copyto`` so NaN and
signed-zero semantics match ``np.where(mask, x, 0.0)`` exactly).  Sampling
and log-prob replicate :class:`~repro.nn.distributions.DiagonalGaussian`
arithmetic term by term, including the RNG call sequence (one
``standard_normal(mean.shape)`` draw per stochastic act).  Plans therefore
return bit-identical actions and log-probs to the Tensor path.

Plans hold references to the network's :class:`~repro.nn.module.Parameter`
objects and read ``param.data`` at execution time, so they stay valid under
in-place optimizer updates, ``load_state_dict``, *and* the stacked
population engine's rebinding of member parameters to row views of the
``(K, ...)`` stacks (:mod:`repro.nn.stacked`).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["PolicyPlan", "PlanUnsupported"]

_LOG_2PI = math.log(2.0 * math.pi)


class PlanUnsupported(TypeError):
    """The network's structure is not one the plan compiler understands."""


class _BlockPlan:
    """Compiled policy residual block: fc1 → norm1 → ReLU → fc2 → norm2 → +skip."""

    __slots__ = ("w1", "b1", "w2", "b2", "norm1", "norm2")

    def __init__(self, block) -> None:
        if block.activation != "relu" or block.norm1 is None or block.norm2 is None:
            raise PlanUnsupported("plan compiler expects ReLU + LayerNorm residual blocks")
        self.w1, self.b1 = block.fc1.weight, block.fc1.bias
        self.w2, self.b2 = block.fc2.weight, block.fc2.bias
        self.norm1 = (block.norm1.scale, block.norm1.shift, block.norm1.eps)
        self.norm2 = (block.norm2.scale, block.norm2.shift, block.norm2.eps)


def row_mean(x: np.ndarray) -> np.ndarray:
    """``x.mean(axis=-1, keepdims=True)`` without its Python wrapper.

    ``ndarray.mean`` is ``np.add.reduce`` followed by a true divide by the
    element count, so this is the same pairwise sum and the same division:
    the same bits, without the wrapper's per-call Python overhead.
    """
    total = np.add.reduce(x, axis=-1, keepdims=True)
    total /= x.shape[-1]
    return total


def _layernorm_inplace(x: np.ndarray, norm: tuple, square: np.ndarray) -> None:
    """In-place fused layernorm on a 1-D buffer, matching the Tensor op.

    Mean/variance reductions compute what the ``mean(axis=-1,
    keepdims=True)`` calls of :func:`repro.autograd.tensor.layernorm` do
    (:func:`row_mean`), so the float sequence is identical; ``square`` is a
    same-shaped scratch buffer.
    """
    scale, shift, eps = norm
    mu = row_mean(x)
    x -= mu
    np.multiply(x, x, out=square)
    var = row_mean(square)
    inv_std = 1.0 / np.sqrt(var + eps)
    x *= inv_std
    x *= scale.data
    x += shift.data


class PolicyPlan:
    """Compiled single-state forward/sample/log-prob for a PolicyNetwork.

    ``act`` accepts exactly the 1-D ``(state_dim,)`` states the rollout and
    production paths produce; any other shape raises :class:`ValueError`.
    Construction raises :class:`PlanUnsupported` for any object that is not
    built like a :class:`~repro.core.networks.PolicyNetwork`.
    """

    def __init__(self, policy) -> None:
        try:
            self.embed_w = policy.embed.weight
            self.embed_b = policy.embed.bias
            self.blocks = [_BlockPlan(b) for b in policy.blocks]
            self.mean_w = policy.mean_head.weight
            self.mean_b = policy.mean_head.bias
            self.log_std = policy.log_std
            self.log_std_lo, self.log_std_hi = policy.log_std_range
            self.mean_center = float(policy.mean_center)
            self.mean_span = float(policy.mean_span)
            self.state_dim = int(policy.state_dim)
            hidden_dim = int(policy.embed.out_features)
            action_dim = int(policy.action_dim)
        except AttributeError as exc:  # non-standard policy object
            raise PlanUnsupported(str(exc)) from exc
        biases = [self.embed_b, self.mean_b]
        biases += [b for blk in self.blocks for b in (blk.b1, blk.b2)]
        if any(bias is None for bias in biases):
            raise PlanUnsupported("plan compiler expects biased linear layers")
        # Ping-pong buffers: ``h`` carries the trunk state, ``f`` the
        # residual branch, ``sq`` the second linear and the layernorm scratch.
        self._h = np.empty(hidden_dim)
        self._f = np.empty(hidden_dim)
        self._sq = np.empty(hidden_dim)
        self._mask = np.empty(hidden_dim, dtype=bool)
        self._nmask = np.empty(hidden_dim, dtype=bool)
        self._mean = np.empty(action_dim)
        self._lsc = np.empty(action_dim)

    def mean_and_log_std(self, state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Forward pass: (mean, clipped log-std) as reused plan buffers."""
        if state.shape != (self.state_dim,):
            raise ValueError(f"plan expects a ({self.state_dim},) state, got {state.shape}")
        h, f, sq = self._h, self._f, self._sq
        np.matmul(state, self.embed_w.data, out=h)
        h += self.embed_b.data
        np.tanh(h, out=h)
        for blk in self.blocks:
            np.matmul(h, blk.w1.data, out=f)
            f += blk.b1.data
            _layernorm_inplace(f, blk.norm1, sq)
            # ReLU with exact ``np.where(f > 0, f, 0.0)`` semantics.
            np.greater(f, 0.0, out=self._mask)
            np.logical_not(self._mask, out=self._nmask)
            np.copyto(f, 0.0, where=self._nmask)
            np.matmul(f, blk.w2.data, out=sq)
            sq += blk.b2.data
            _layernorm_inplace(sq, blk.norm2, f)
            h += sq
        np.tanh(h, out=h)
        mean = self._mean
        np.matmul(h, self.mean_w.data, out=mean)
        mean += self.mean_b.data
        np.tanh(mean, out=mean)
        mean *= self.mean_span
        mean += self.mean_center
        np.clip(self.log_std.data, self.log_std_lo, self.log_std_hi, out=self._lsc)
        return mean, self._lsc

    def act(
        self,
        state: np.ndarray,
        rng: np.random.Generator | None,
        *,
        deterministic: bool = False,
        want_log_prob: bool = True,
    ) -> tuple[np.ndarray, float]:
        """One policy query: ``(action, log_prob)``, bit-identical to
        ``PolicyNetwork.forward`` + ``DiagonalGaussian.sample/log_prob``.

        The returned action is always a fresh array (safe to alias in
        rollout memories); ``log_prob`` is 0.0 when ``want_log_prob`` is
        off (production controllers never read it).
        """
        mean, lsc = self.mean_and_log_std(state)
        if deterministic:
            action = mean.copy()
        else:
            noise = rng.standard_normal(mean.shape)
            action = mean + np.exp(lsc) * noise
        if not want_log_prob:
            return action, 0.0
        std = np.exp(lsc)
        z = (action - mean) / std
        per_dim = (z * z) * -0.5 - lsc - 0.5 * _LOG_2PI
        return action, float(per_dim.sum(axis=-1))
