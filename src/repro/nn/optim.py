"""Gradient-descent optimizers: SGD and Adam, plus global-norm clipping.

Adam follows Kingma & Ba (2015) with bias correction; the paper's Algorithm 2
updates both networks with Adam.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.autograd.tensor import Tensor


def clip_grad_norm(parameters: Sequence[Tensor], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip norm.
    """
    total = 0.0
    grads = [p.grad for p in parameters if p.grad is not None]
    for g in grads:
        flat = g.ravel()
        total += float(np.dot(flat, flat))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for g in grads:
            g *= scale
    return norm


def adam_step(
    p: np.ndarray,
    g: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    scratch: np.ndarray,
    *,
    step: int,
    lr: float,
    betas: tuple[float, float] = (0.9, 0.999),
    eps: float = 1e-8,
) -> None:
    """Adam update number ``step`` of ``p`` with gradient ``g``, in place.

    ``m``/``v`` are the first/second moment estimates and ``scratch`` a work
    array, all shaped like ``p``.  Every operation is elementwise, so one
    call over a flat buffer holding many parameters, or one call per block
    of it, gives the same bits in every slot as one call per parameter; the
    stacked policy engine (:mod:`repro.nn.stacked`) relies on that.
    """
    b1, b2 = betas
    scale = lr / (1.0 - b1**step)
    inv_sqrt_c2 = 1.0 / np.sqrt(1.0 - b2**step)
    # m = b1 m + (1 - b1) g ; v = b2 v + (1 - b2) g²
    m *= b1
    np.multiply(g, 1.0 - b1, out=scratch)
    m += scratch
    v *= b2
    np.square(g, out=scratch)
    scratch *= 1.0 - b2
    v += scratch
    # p -= lr * m̂ / (sqrt(v̂) + eps), all in scratch
    np.sqrt(v, out=scratch)
    scratch *= inv_sqrt_c2
    scratch += eps
    np.divide(m, scratch, out=scratch)
    scratch *= scale
    p -= scratch


class Optimizer:
    """Base optimizer: holds parameters, provides ``zero_grad``."""

    def __init__(self, parameters: Sequence[Tensor]) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class SGD(Optimizer):
    """Vanilla stochastic gradient descent with optional momentum."""

    def __init__(self, parameters: Sequence[Tensor], lr: float = 1e-2, momentum: float = 0.0) -> None:
        super().__init__(parameters)
        self.lr = lr
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        """Apply one update using the stored gradients."""
        for p, v in zip(self.parameters, self._velocity):
            if p.grad is None:
                continue
            if self.momentum:
                v *= self.momentum
                v += p.grad
                p.data -= self.lr * v
            else:
                p.data -= self.lr * p.grad


class Adam(Optimizer):
    """Adam optimizer with bias-corrected first/second moment estimates."""

    def __init__(
        self,
        parameters: Sequence[Tensor],
        lr: float = 3e-4,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        super().__init__(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        # Reusable scratch buffers keep the hot update loop allocation-free
        # (in-place numpy ops, per the hpc-parallel optimization guide).
        self._scratch = [np.empty_like(p.data) for p in self.parameters]

    def step(self) -> None:
        """Apply one Adam update using the stored gradients (in place)."""
        self._step_count += 1
        for p, m, v, scratch in zip(self.parameters, self._m, self._v, self._scratch):
            if p.grad is not None:
                adam_step(
                    p.data, p.grad, m, v, scratch, step=self._step_count, lr=self.lr,
                    betas=(self.beta1, self.beta2), eps=self.eps,
                )
