"""Reverse-mode autograd engine and graph actor-critic, kept as a test oracle.

Production trains one network: the flat-parameter
:class:`repro.drl.policy.ActorCritic`, whose forward pass and PPO gradient
(:mod:`repro.drl.fused`) are straight numpy. This module holds the
autograd formulation that arithmetic was derived from, so the tests can pin
the production network bit for bit against an independent execution of the
same maths:

- :class:`Tensor` — a numpy-backed reverse-mode autograd tensor with full
  broadcasting and gradient accumulation through shared sub-graphs
  (gradients checked against central finite differences in
  ``tests/test_nn_tensor.py``), and :class:`no_grad`;
- :class:`Module` / :class:`Linear` / :class:`Tanh` / :class:`Sequential`
  — parameter tracking, ``state_dict`` round trips;
- :class:`DiagonalGaussian` — the Gaussian policy head as differentiable
  Tensor expressions;
- per-parameter :class:`Adam` and :func:`clip_grad_norm`;
- :class:`GraphActorCritic` — the shared-trunk actor-critic as a Module of
  Tensors, built from the same seeds and draws as the production network,
  so both hold bitwise-equal initial weights.

``tests/training_oracle.py``'s ``ReferencePPOAgent`` runs PPO through this
graph. ``setup.cfg`` puts ``tests/`` on pytest's ``pythonpath``, so tests
and ``benchmarks/`` import this module as ``autograd_oracle``.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator

import numpy as np

from repro.drl.policy import orthogonal
from repro.errors import ConfigurationError, GradientError, NeuralNetworkError
from repro.utils.rng import SeedLike, as_generator, spawn_children

# --------------------------------------------------------------------- #
# autograd tensor
# --------------------------------------------------------------------- #

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


# --------------------------------------------------------------------- #
# initialisation and modules
# --------------------------------------------------------------------- #


def zeros(*shape: int) -> np.ndarray:
    """A zero array (bias initialisation)."""
    return np.zeros(shape)


def constant(value: float, *shape: int) -> np.ndarray:
    """A constant-filled array (e.g. initial log-std)."""
    return np.full(shape, float(value))


class Module:
    """Base class: tracks parameters and sub-modules by attribute assignment."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Tensor) and value.requires_grad:
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def parameters(self) -> Iterator[Tensor]:
        """Yield every trainable tensor of this module and its children."""
        yield from self._parameters.values()
        for module in self._modules.values():
            yield from module.parameters()

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        """Yield (dotted-name, tensor) pairs."""
        for name, parameter in self._parameters.items():
            yield f"{prefix}{name}", parameter
        for child_name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{child_name}.")

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for parameter in self.parameters():
            parameter.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter's data, keyed by dotted name."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter data; shapes must match exactly."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise NeuralNetworkError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, parameter in own.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != parameter.data.shape:
                raise NeuralNetworkError(
                    f"shape mismatch for {name!r}: "
                    f"{value.shape} vs {parameter.data.shape}"
                )
            parameter.data = value.copy()

    def forward(self, x: Tensor) -> Tensor:
        """Compute the module's output."""
        raise NotImplementedError

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)


class Linear(Module):
    """Affine layer ``y = x W + b`` with orthogonal initialisation."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        gain: float = 1.0,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise NeuralNetworkError(
                f"features must be >= 1, got {in_features}, {out_features}"
            )
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Tensor(
            orthogonal(in_features, out_features, gain=gain, seed=seed),
            requires_grad=True,
        )
        self.bias = Tensor(zeros(out_features), requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_features:
            raise NeuralNetworkError(
                f"expected input of width {self.in_features}, got {x.shape}"
            )
        return x @ self.weight + self.bias


class Tanh(Module):
    """Tanh activation module."""

    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sequential(Module):
    """Compose modules in order."""

    def __init__(self, *layers: Module) -> None:
        super().__init__()
        self._layers = []
        for index, layer in enumerate(layers):
            setattr(self, f"layer{index}", layer)
            self._layers.append(layer)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self._layers:
            x = layer(x)
        return x

    def __len__(self) -> int:
        return len(self._layers)

    def __getitem__(self, index: int) -> Module:
        return self._layers[index]


# --------------------------------------------------------------------- #
# Gaussian policy head
# --------------------------------------------------------------------- #

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


class DiagonalGaussian:
    """A batch of independent Gaussians ``N(mean, exp(log_std)^2)``.

    Args:
        mean: Tensor of shape (batch, action_dim).
        log_std: Tensor broadcastable to ``mean`` (usually (action_dim,)).
    """

    def __init__(self, mean: Tensor, log_std: Tensor) -> None:
        self.mean = mean
        self.log_std = log_std

    @property
    def std(self) -> np.ndarray:
        """Standard deviation as a plain array (no graph)."""
        return np.exp(np.broadcast_to(self.log_std.data, self.mean.shape))

    def sample(self, seed: SeedLike = None) -> np.ndarray:
        """Draw actions (no gradient flows through sampling)."""
        rng = as_generator(seed)
        noise = rng.normal(size=self.mean.shape)
        return self.mean.data + self.std * noise

    def mode(self) -> np.ndarray:
        """The distribution mode (the mean) — deterministic evaluation."""
        return self.mean.data.copy()

    def log_prob(self, actions: np.ndarray) -> Tensor:
        """Differentiable log-density of ``actions`` summed over action dims.

        Returns a Tensor of shape (batch,).
        """
        actions = np.asarray(actions, dtype=np.float64)
        if actions.shape != self.mean.shape:
            raise ValueError(
                f"actions shape {actions.shape} != mean shape {self.mean.shape}"
            )
        inv_std = (-self.log_std).exp()
        standardized = (Tensor(actions) - self.mean) * inv_std
        per_dim = (
            standardized * standardized * (-0.5)
            - self.log_std
            - _LOG_SQRT_2PI
        )
        return per_dim.sum(axis=-1)

    def entropy(self) -> Tensor:
        """Differentiable entropy summed over action dims, shape (batch,)."""
        # H = 0.5 + 0.5 log(2π) + log σ, per dimension.
        per_dim = self.log_std + (0.5 + _LOG_SQRT_2PI)
        broadcast = per_dim + Tensor(np.zeros(self.mean.shape))
        return broadcast.sum(axis=-1)

    def kl_divergence(self, other: "DiagonalGaussian") -> Tensor:
        """KL(self || other), summed over action dims (diagnostics)."""
        var_ratio = ((self.log_std - other.log_std) * 2.0).exp()
        mean_term = ((self.mean - other.mean) * (-other.log_std).exp()) ** 2.0
        per_dim = (var_ratio + mean_term - 1.0) * 0.5 + (
            other.log_std - self.log_std
        )
        return per_dim.sum(axis=-1)


# --------------------------------------------------------------------- #
# per-parameter optimiser
# --------------------------------------------------------------------- #


def clip_grad_norm(parameters: Iterable[Tensor], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= ``max_norm``.

    Returns the pre-clip norm. Parameters without gradients are skipped.
    The per-array squared sums are reduced sequentially (``cumsum``), the
    association order of ``sum(float((g**2).sum()) for g in grads)``.
    """
    if max_norm <= 0.0:
        raise NeuralNetworkError(f"max_norm must be > 0, got {max_norm}")
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    total = float(np.sqrt(np.cumsum(np.stack([(g**2).sum() for g in grads]))[-1]))
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for grad in grads:
            grad *= scale
    return total


class Adam:
    """Adam (Kingma & Ba, 2015) with bias correction, one parameter at a
    time; parameters without a gradient are skipped."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        learning_rate: float = 1e-5,
        *,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise NeuralNetworkError("optimizer received no parameters")
        if learning_rate <= 0.0:
            raise NeuralNetworkError(f"learning_rate must be > 0, got {learning_rate}")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise NeuralNetworkError(
                f"betas must be in [0, 1), got {beta1}, {beta2}"
            )
        if epsilon <= 0.0:
            raise NeuralNetworkError(f"epsilon must be > 0, got {epsilon}")
        self.learning_rate = float(learning_rate)
        self.beta1, self.beta2, self.epsilon = float(beta1), float(beta2), float(epsilon)
        self.step_count = 0
        self._first_moment = [np.zeros_like(p.data) for p in self.parameters]
        self._second_moment = [np.zeros_like(p.data) for p in self.parameters]

    def zero_grad(self) -> None:
        """Clear every parameter's gradient."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:
        """Apply one update from the accumulated gradients."""
        self.step_count += 1
        bias1 = 1.0 - self.beta1**self.step_count
        bias2 = 1.0 - self.beta2**self.step_count
        for parameter, m, v in zip(
            self.parameters, self._first_moment, self._second_moment
        ):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            parameter.data = parameter.data - self.learning_rate * m_hat / (
                np.sqrt(v_hat) + self.epsilon
            )


# --------------------------------------------------------------------- #
# graph actor-critic
# --------------------------------------------------------------------- #


class GraphActorCritic(Module):
    """The shared-trunk actor-critic as a Module of autograd Tensors.

    Same constructor, seeds, draws and ``state_dict`` keys as
    :class:`repro.drl.policy.ActorCritic`, so the two hold bitwise-equal
    initial weights; every forward runs through the autograd graph.
    """

    def __init__(
        self,
        obs_dim: int,
        hidden_sizes: tuple[int, ...] = (64, 64),
        *,
        action_dim: int = 1,
        initial_log_std: float = -0.5,
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        if obs_dim < 1 or action_dim < 1:
            raise ConfigurationError(
                f"obs_dim and action_dim must be >= 1, got {obs_dim}, {action_dim}"
            )
        if not hidden_sizes:
            raise ConfigurationError("need at least one hidden layer")
        seeds = spawn_children(seed, 2 * len(hidden_sizes) + 2)
        layers: list[Module] = []
        widths = [obs_dim, *hidden_sizes]
        for i, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
            layers.append(
                Linear(fan_in, fan_out, gain=float(np.sqrt(2.0)), seed=seeds[i])
            )
            layers.append(Tanh())
        self.trunk = Sequential(*layers)
        self.actor_head = Linear(widths[-1], action_dim, gain=0.01, seed=seeds[-2])
        self.critic_head = Linear(widths[-1], 1, gain=1.0, seed=seeds[-1])
        self.log_std = Tensor(
            constant(initial_log_std, action_dim), requires_grad=True
        )
        self.obs_dim = obs_dim
        self.action_dim = action_dim

    def _features(self, observations: Tensor) -> Tensor:
        if observations.ndim != 2 or observations.shape[1] != self.obs_dim:
            raise ConfigurationError(
                f"expected observations of shape (batch, {self.obs_dim}), "
                f"got {observations.shape}"
            )
        return self.trunk(observations)

    def distribution(self, observations: Tensor) -> DiagonalGaussian:
        """The Gaussian policy ``π_θ(· | o)`` for a batch of observations."""
        features = self._features(observations)
        return DiagonalGaussian(self.actor_head(features), self.log_std)

    def value(self, observations: Tensor) -> Tensor:
        """Critic estimates ``V_πθ(o)``, shape (batch,)."""
        features = self._features(observations)
        return self.critic_head(features).squeeze(-1)

    def evaluate(self, observations: Tensor) -> tuple[DiagonalGaussian, Tensor]:
        """Distribution and value sharing one trunk pass (one graph)."""
        features = self._features(observations)
        dist = DiagonalGaussian(self.actor_head(features), self.log_std)
        return dist, self.critic_head(features).squeeze(-1)

    def act(
        self,
        observation: np.ndarray,
        *,
        seed: SeedLike = None,
        deterministic: bool = False,
    ) -> tuple[np.ndarray, float, float]:
        """Sample ``(raw_action, log_prob, value)`` for one observation."""
        raws, log_probs, values = self.act_batch(
            np.asarray(observation, dtype=np.float64).reshape(1, -1),
            seed=seed,
            deterministic=deterministic,
        )
        return raws[0], float(log_probs[0]), float(values[0])

    def act_batch(
        self,
        observations: np.ndarray,
        *,
        seed: SeedLike = None,
        deterministic: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One graph forward for a batch; one Gaussian noise block per call.

        Returns ``(raw_actions (E, action_dim), log_probs (E,), values (E,))``.
        """
        rng = as_generator(seed)
        obs = np.asarray(observations, dtype=np.float64)
        if obs.ndim != 2:
            raise ConfigurationError(
                f"expected observations of shape (batch, {self.obs_dim}), "
                f"got {obs.shape}"
            )
        with no_grad():
            dist, values = self.evaluate(Tensor(obs))
            raws = dist.mode() if deterministic else dist.sample(rng)
            log_probs = dist.log_prob(raws)
        return raws, log_probs.data.copy(), values.data.copy()
