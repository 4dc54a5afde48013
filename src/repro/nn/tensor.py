"""A minimal reverse-mode autograd engine over numpy arrays.

This is the PyTorch replacement for the paper's actor-critic PPO (the
execution environment has no torch). It implements exactly the operator set
the DRL stack needs — dense linear algebra, pointwise nonlinearities, and
the clip/minimum ops of the PPO surrogate — with full broadcasting support
and gradient accumulation through shared sub-graphs.

Design notes:
- ``Tensor`` wraps a float64 ``numpy.ndarray``; gradients are plain arrays.
- The graph is built eagerly; ``backward()`` runs a topological sort and
  calls each node's pull-back closure.
- Broadcasting is handled by summing gradients over broadcast axes
  (:func:`_unbroadcast`), so biases and scalar coefficients "just work".
- Gradient correctness for every op is verified against central finite
  differences in ``tests/test_nn_tensor.py``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np

from repro.errors import GradientError

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables graph construction (like torch.no_grad)."""

    def __enter__(self) -> None:
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False

    def __exit__(self, *exc_info: object) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous


def is_grad_enabled() -> bool:
    """Whether new operations will be recorded on the autograd graph."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing over broadcast axes."""
    if grad.shape == shape:
        return grad
    # Sum leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum axes that were size-1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A numpy-backed autograd tensor.

    Attributes:
        data: the underlying float64 array.
        grad: accumulated gradient (same shape as ``data``), or None.
        requires_grad: whether this tensor participates in autograd.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(
        self,
        data: np.ndarray | float | int | list,
        *,
        requires_grad: bool = False,
        _parents: tuple["Tensor", ...] = (),
        _backward: Callable[[np.ndarray], None] | None = None,
    ) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._parents = _parents if self.requires_grad else ()
        self._backward = _backward if self.requires_grad else None

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        """A zero-filled tensor."""
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        """A one-filled tensor."""
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def _lift(value: "Tensor | float | int | np.ndarray") -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(value)

    # ------------------------------------------------------------------ #
    # shape / dtype conveniences
    # ------------------------------------------------------------------ #
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
        """Total number of elements."""
        return self.data.size

    def item(self) -> float:
        """The value of a single-element tensor as a float."""
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _raise_item(self)

    def numpy(self) -> np.ndarray:
        """A detached copy of the data."""
        return self.data.copy()

    def detach(self) -> "Tensor":
        """A tensor sharing data but cut off from the graph."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        """Clear the accumulated gradient."""
        self.grad = None

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # ------------------------------------------------------------------ #
    # graph plumbing
    # ------------------------------------------------------------------ #
    def _make(
        self,
        data: np.ndarray,
        parents: tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def backward(self, gradient: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        Args:
            gradient: seed gradient; defaults to 1 (requires a scalar).

        Raises:
            GradientError: if called on a non-scalar without a seed, or on
                a tensor outside any graph.
        """
        if not self.requires_grad:
            raise GradientError("backward() on a tensor that does not require grad")
        if gradient is None:
            if self.data.size != 1:
                raise GradientError(
                    f"backward() without a gradient requires a scalar, "
                    f"got shape {self.shape}"
                )
            gradient = np.ones_like(self.data)

        # Topological order via iterative DFS (recursion-free: graphs from
        # long rollouts can exceed Python's recursion limit).
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(np.asarray(gradient, dtype=np.float64))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------ #
    # arithmetic ops
    # ------------------------------------------------------------------ #
    def __add__(self, other: "Tensor | float") -> "Tensor":
        other = Tensor._lift(other)

        def backward(grad: np.ndarray) -> None:
            self.requires_grad and self._accumulate(grad)
            other.requires_grad and other._accumulate(grad)

        return self._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self.requires_grad and self._accumulate(-grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other: "Tensor | float") -> "Tensor":
        return self + (-Tensor._lift(other))

    def __rsub__(self, other: float) -> "Tensor":
        return Tensor._lift(other) + (-self)

    def __mul__(self, other: "Tensor | float") -> "Tensor":
        other = Tensor._lift(other)

        def backward(grad: np.ndarray) -> None:
            self.requires_grad and self._accumulate(grad * other.data)
            other.requires_grad and other._accumulate(grad * self.data)

        return self._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: "Tensor | float") -> "Tensor":
        other = Tensor._lift(other)

        def backward(grad: np.ndarray) -> None:
            self.requires_grad and self._accumulate(grad / other.data)
            other.requires_grad and other._accumulate(
                -grad * self.data / (other.data**2)
            )

        return self._make(self.data / other.data, (self, other), backward)

    def __rtruediv__(self, other: float) -> "Tensor":
        return Tensor._lift(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")

        def backward(grad: np.ndarray) -> None:
            self.requires_grad and self._accumulate(
                grad * exponent * self.data ** (exponent - 1)
            )

        return self._make(self.data**exponent, (self,), backward)

    def matmul(self, other: "Tensor") -> "Tensor":
        """2-D matrix multiplication (batched inputs as (batch, features))."""
        other = Tensor._lift(other)

        def backward(grad: np.ndarray) -> None:
            self.requires_grad and self._accumulate(grad @ other.data.T)
            other.requires_grad and other._accumulate(self.data.T @ grad)

        return self._make(self.data @ other.data, (self, other), backward)

    __matmul__ = matmul

    # ------------------------------------------------------------------ #
    # pointwise nonlinearities
    # ------------------------------------------------------------------ #
    def tanh(self) -> "Tensor":
        """Hyperbolic tangent."""
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self.requires_grad and self._accumulate(grad * (1.0 - out_data**2))

        return self._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        """Rectified linear unit."""

        def backward(grad: np.ndarray) -> None:
            self.requires_grad and self._accumulate(grad * (self.data > 0.0))

        return self._make(np.maximum(self.data, 0.0), (self,), backward)

    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self.requires_grad and self._accumulate(grad * out_data)

        return self._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        """Elementwise natural log."""

        def backward(grad: np.ndarray) -> None:
            self.requires_grad and self._accumulate(grad / self.data)

        return self._make(np.log(self.data), (self,), backward)

    def sigmoid(self) -> "Tensor":
        """Logistic sigmoid."""
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self.requires_grad and self._accumulate(grad * out_data * (1.0 - out_data))

        return self._make(out_data, (self,), backward)

    def clamp(self, low: float, high: float) -> "Tensor":
        """Clip values to ``[low, high]``; gradient is zero outside.

        This is the ``f_clip`` of Eq. (19).
        """
        if low > high:
            raise ValueError(f"clamp bounds inverted: {low} > {high}")
        inside = (self.data >= low) & (self.data <= high)

        def backward(grad: np.ndarray) -> None:
            self.requires_grad and self._accumulate(grad * inside)

        return self._make(np.clip(self.data, low, high), (self,), backward)

    def minimum(self, other: "Tensor") -> "Tensor":
        """Elementwise minimum; subgradient routes to the smaller branch
        (ties split evenly). Used by the PPO surrogate ``min(·,·)``."""
        other = Tensor._lift(other)
        self_smaller = self.data < other.data
        tie = self.data == other.data

        def backward(grad: np.ndarray) -> None:
            self.requires_grad and self._accumulate(
                grad * (self_smaller + 0.5 * tie)
            )
            other.requires_grad and other._accumulate(
                grad * (~self_smaller & ~tie) + grad * 0.5 * tie
            )

        return self._make(np.minimum(self.data, other.data), (self, other), backward)

    # ------------------------------------------------------------------ #
    # reductions and reshaping
    # ------------------------------------------------------------------ #
    def sum(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all axes when None)."""

        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        return self._make(
            self.data.sum(axis=axis, keepdims=keepdims), (self,), backward
        )

    def mean(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Mean over ``axis`` (all axes when None)."""
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        """Reshape, preserving gradient flow."""

        def backward(grad: np.ndarray) -> None:
            self.requires_grad and self._accumulate(grad.reshape(self.data.shape))

        return self._make(self.data.reshape(*shape), (self,), backward)

    def squeeze(self, axis: int = -1) -> "Tensor":
        """Remove a size-1 axis."""
        if self.data.shape[axis] != 1:
            raise ValueError(
                f"cannot squeeze axis {axis} of shape {self.data.shape}"
            )

        def backward(grad: np.ndarray) -> None:
            self.requires_grad and self._accumulate(
                np.expand_dims(grad, axis).reshape(self.data.shape)
            )

        return self._make(np.squeeze(self.data, axis=axis), (self,), backward)

    @staticmethod
    def concatenate(tensors: Iterable["Tensor"], axis: int = -1) -> "Tensor":
        """Concatenate tensors along ``axis`` with gradient routing."""
        tensor_list = [Tensor._lift(t) for t in tensors]
        if not tensor_list:
            raise ValueError("concatenate needs at least one tensor")
        sizes = [t.data.shape[axis] for t in tensor_list]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for tensor, start, end in zip(tensor_list, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    index = [slice(None)] * grad.ndim
                    index[axis] = slice(start, end)
                    tensor._accumulate(grad[tuple(index)])

        data = np.concatenate([t.data for t in tensor_list], axis=axis)
        out = Tensor(data)
        if _GRAD_ENABLED and any(t.requires_grad for t in tensor_list):
            out.requires_grad = True
            out._parents = tuple(t for t in tensor_list if t.requires_grad)
            out._backward = backward
        return out


def _raise_item(tensor: Tensor) -> float:
    raise ValueError(f"item() requires a single-element tensor, got {tensor.shape}")
