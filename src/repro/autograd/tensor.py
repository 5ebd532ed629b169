"""Reverse-mode autodiff core: the :class:`Tensor` class and its operations.

Implementation notes
--------------------
* Gradients are accumulated into ``Tensor.grad`` (a plain ndarray) during
  :meth:`Tensor.backward`, which walks the recorded graph in reverse
  topological order.
* Broadcasting follows numpy semantics; :func:`_unbroadcast` sums gradient
  contributions back down to each parent's shape.
* A module-level switch (:func:`no_grad`) disables graph recording for
  inference-time rollouts, which dominate PPO wall-clock — per the
  hpc-parallel optimization guide we keep that hot path allocation-light.
"""

from __future__ import annotations

import contextlib
from collections.abc import Sequence

import numpy as np

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction (inference mode)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    # Remove leading added axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum along axes that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        name: str = "",
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = _parents if self.requires_grad or _parents else ()
        self._backward = None
        self.name = name

    # ------------------------------------------------------------- properties
    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total element count."""
        return self.data.size

    def item(self) -> float:
        """Extract a Python float from a single-element tensor."""
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """The raw ndarray (shared, not copied)."""
        return self.data

    def detach(self) -> "Tensor":
        """A new tensor sharing data but cut from the graph."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"

    # ------------------------------------------------------------ graph build
    @staticmethod
    def _lift(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    def _make(self, data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, _parents=parents if requires else ())
        if requires:
            out._backward = backward
        return out

    # -------------------------------------------------------------- arithmetic
    def __add__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data + other.data

        def backward(grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return _unbroadcast(grad, self.shape), _unbroadcast(grad, other.shape)

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> tuple[np.ndarray]:
            return (-grad,)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data - other.data

        def backward(grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return _unbroadcast(grad, self.shape), _unbroadcast(-grad, other.shape)

        return self._make(out_data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return self._lift(other) - self

    def __mul__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data * other.data

        def backward(grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return (
                _unbroadcast(grad * other.data, self.shape),
                _unbroadcast(grad * self.data, other.shape),
            )

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data / other.data

        def backward(grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return (
                _unbroadcast(grad / other.data, self.shape),
                _unbroadcast(-grad * self.data / (other.data**2), other.shape),
            )

        return self._make(out_data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._lift(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp(b * log(a))")
        out_data = self.data**exponent

        def backward(grad: np.ndarray) -> tuple[np.ndarray]:
            return (grad * exponent * self.data ** (exponent - 1),)

        return self._make(out_data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._lift(other)
        out_data = self.data @ other.data

        def backward(grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:  # inner product -> scalar
                return grad * b, grad * a
            if a.ndim == 1:  # (k,) @ (k, n) -> (n,)
                return grad @ b.T, np.outer(a, grad)
            if b.ndim == 1:  # (m, k) @ (k,) -> (m,)
                return np.outer(grad, b), a.T @ grad
            return grad @ b.T, a.T @ grad

        return self._make(out_data, (self, other), backward)

    # -------------------------------------------------------------- reductions
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all elements when ``None``)."""
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> tuple[np.ndarray]:
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                axes = (axis,) if isinstance(axis, int) else axis
                for ax in sorted(ax % self.ndim for ax in axes):
                    g = np.expand_dims(g, ax)
            return (np.broadcast_to(g, self.shape).copy(),)

        return self._make(out_data, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over ``axis``."""
        count = self.size if axis is None else np.prod(
            [self.shape[ax] for ax in ((axis,) if isinstance(axis, int) else axis)]
        )
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / float(count))

    # ------------------------------------------------------------ shape manip
    def reshape(self, *shape: int) -> "Tensor":
        """View with a new shape."""
        out_data = self.data.reshape(*shape)

        def backward(grad: np.ndarray) -> tuple[np.ndarray]:
            return (grad.reshape(self.shape),)

        return self._make(out_data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        """Matrix transpose (2-D only)."""
        out_data = self.data.T

        def backward(grad: np.ndarray) -> tuple[np.ndarray]:
            return (grad.T,)

        return self._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad: np.ndarray) -> tuple[np.ndarray]:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            return (full,)

        return self._make(out_data, (self,), backward)

    # ---------------------------------------------------------------- backward
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor; default seed gradient is ones.

        Typically called on a scalar loss.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        seed = np.ones_like(self.data) if grad is None else np.asarray(grad, dtype=np.float64)
        grads: dict[int, np.ndarray] = {id(self): seed}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.grad is None:
                node.grad = node_grad.copy()
            else:
                node.grad = node.grad + node_grad
            if node._backward is None:
                continue
            parent_grads = node._backward(node_grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if not parent.requires_grad or pgrad is None:
                    continue
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pgrad
                else:
                    grads[id(parent)] = pgrad


def tensor(data, requires_grad: bool = False) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)


# -------------------------------------------------------------- element-wise
def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    out_data = np.tanh(x.data)

    def backward(grad: np.ndarray) -> tuple[np.ndarray]:
        return (grad * (1.0 - out_data**2),)

    return x._make(out_data, (x,), backward)


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    mask = x.data > 0
    out_data = np.where(mask, x.data, 0.0)

    def backward(grad: np.ndarray) -> tuple[np.ndarray]:
        return (grad * mask,)

    return x._make(out_data, (x,), backward)


def exp(x: Tensor) -> Tensor:
    """Elementwise exponential."""
    out_data = np.exp(x.data)

    def backward(grad: np.ndarray) -> tuple[np.ndarray]:
        return (grad * out_data,)

    return x._make(out_data, (x,), backward)


def log(x: Tensor) -> Tensor:
    """Elementwise natural log."""
    out_data = np.log(x.data)

    def backward(grad: np.ndarray) -> tuple[np.ndarray]:
        return (grad / x.data,)

    return x._make(out_data, (x,), backward)


def sqrt(x: Tensor) -> Tensor:
    """Elementwise square root."""
    out_data = np.sqrt(x.data)

    def backward(grad: np.ndarray) -> tuple[np.ndarray]:
        return (grad * 0.5 / out_data,)

    return x._make(out_data, (x,), backward)


def clip(x: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp to ``[lo, hi]``; gradient is zero outside the active range.

    This matches ``torch.clamp`` semantics, which the paper relies on both
    for the PPO ratio clip and for bounding the learnable log-std.
    """
    mask = (x.data >= lo) & (x.data <= hi)
    out_data = np.clip(x.data, lo, hi)

    def backward(grad: np.ndarray) -> tuple[np.ndarray]:
        return (grad * mask,)

    return x._make(out_data, (x,), backward)


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise minimum of two tensors (subgradient: ties go to ``a``)."""
    a, b = Tensor._lift(a), Tensor._lift(b)
    take_a = a.data <= b.data
    out_data = np.where(take_a, a.data, b.data)

    def backward(grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (
            _unbroadcast(grad * take_a, a.shape),
            _unbroadcast(grad * ~take_a, b.shape),
        )

    return a._make(out_data, (a, b), backward)


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise maximum of two tensors (subgradient: ties go to ``a``)."""
    a, b = Tensor._lift(a), Tensor._lift(b)
    take_a = a.data >= b.data
    out_data = np.where(take_a, a.data, b.data)

    def backward(grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (
            _unbroadcast(grad * take_a, a.shape),
            _unbroadcast(grad * ~take_a, b.shape),
        )

    return a._make(out_data, (a, b), backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Select ``a`` where ``condition`` else ``b``; condition carries no grad."""
    a, b = Tensor._lift(a), Tensor._lift(b)
    cond = np.asarray(condition, dtype=bool)
    out_data = np.where(cond, a.data, b.data)

    def backward(grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return (
            _unbroadcast(grad * cond, a.shape),
            _unbroadcast(grad * ~cond, b.shape),
        )

    return a._make(out_data, (a, b), backward)


def layernorm(x: Tensor, scale: Tensor, shift: Tensor, eps: float = 1e-5) -> Tensor:
    """Fused layer normalization over the last axis (performance primitive).

    Equivalent to composing mean/var/normalize/affine from primitive ops but
    one graph node instead of ~8 — LayerNorm sits inside every policy
    residual block, so this measurably cuts per-episode cost.
    """
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out_data = xhat * scale.data + shift.data

    def backward(grad: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        dxhat = grad * scale.data
        # dL/dx via the standard layernorm backward.
        dx = (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        ) * inv_std
        batch_axes = tuple(range(grad.ndim - 1))
        dscale = (grad * xhat).sum(axis=batch_axes) if batch_axes else grad * xhat
        dshift = grad.sum(axis=batch_axes) if batch_axes else grad
        return dx, dscale, dshift

    return x._make(out_data, (x, scale, shift), backward)


# ------------------------------------------------------------------- joining
def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    tensors = [Tensor._lift(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> tuple[np.ndarray, ...]:
        pieces = np.split(grad, len(tensors), axis=axis)
        return tuple(np.squeeze(p, axis=axis) for p in pieces)

    return tensors[0]._make(out_data, tuple(tensors), backward)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along an existing axis."""
    tensors = [Tensor._lift(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum(sizes)[:-1]

    def backward(grad: np.ndarray) -> tuple[np.ndarray, ...]:
        return tuple(np.split(grad, offsets, axis=axis))

    return tensors[0]._make(out_data, tuple(tensors), backward)
