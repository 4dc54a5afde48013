"""First-order optimisers: SGD (with momentum) and Adam.

The paper trains with Adam at lr = 1e-5 (Sec. V-A). Both optimisers also
implement global-norm gradient clipping, the standard PPO stabiliser.

Two families live here:

- the reference per-parameter optimisers (:class:`SGD`, :class:`Adam`)
  that loop over the parameter list — the seed implementation, kept as
  the bitwise ground truth;
- the fused flat-parameter optimisers (:class:`FlatSGD`,
  :class:`FlatAdam`) that re-bind every parameter's data as a view into
  one contiguous buffer so the whole update (including global-norm
  clipping) is a handful of array operations instead of ``N`` Python-loop
  updates.  The fused update is bitwise-identical to the per-parameter
  path (pinned by ``tests/test_drl_fused.py``).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

from repro.errors import NeuralNetworkError
from repro.nn.tensor import Tensor

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "FlatOptimizer",
    "FlatSGD",
    "FlatAdam",
    "clip_grad_norm",
    "global_grad_norm",
]


def global_grad_norm(grads: Sequence) -> float:
    """Global L2 norm of a gradient list in one fused reduction.

    The per-array squared sums are stacked and reduced *sequentially*
    (``cumsum``), which is the exact association order of the reference
    ``sum(float((g**2).sum()) for g in grads)`` Python loop — so the
    result is bitwise-identical — while crossing the array/host boundary
    once instead of once per parameter.
    """
    if not grads:
        return 0.0
    squares = np.stack([(g**2).sum() for g in grads])
    return float(np.sqrt(np.cumsum(squares)[-1]))


def clip_grad_norm(parameters: Iterable[Tensor], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= ``max_norm``.

    Returns the pre-clip norm. Parameters without gradients are skipped.
    The norm is computed by :func:`global_grad_norm` — one fused reduction,
    bitwise-equal to the historical per-parameter Python sum.
    """
    if max_norm <= 0.0:
        raise NeuralNetworkError(f"max_norm must be > 0, got {max_norm}")
    grads = [p.grad for p in parameters if p.grad is not None]
    total = global_grad_norm(grads)
    if total > max_norm and total > 0.0:
        scale = max_norm / total
        for grad in grads:
            grad *= scale
    return total


class Optimizer:
    """Base optimiser over an explicit parameter list."""

    def __init__(self, parameters: Iterable[Tensor], learning_rate: float) -> None:
        self._parameters = list(parameters)
        if not self._parameters:
            raise NeuralNetworkError("optimizer received no parameters")
        if learning_rate <= 0.0:
            raise NeuralNetworkError(f"learning_rate must be > 0, got {learning_rate}")
        self.learning_rate = float(learning_rate)

    @property
    def parameters(self) -> list[Tensor]:
        """The parameters this optimiser updates."""
        return self._parameters

    def zero_grad(self) -> None:
        """Clear every parameter's gradient."""
        for parameter in self._parameters:
            parameter.zero_grad()

    def step(self) -> None:
        """Apply one update from the accumulated gradients."""
        raise NotImplementedError


class SGD(Optimizer):
    """Stochastic gradient descent with optional classical momentum."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        learning_rate: float,
        *,
        momentum: float = 0.0,
    ) -> None:
        super().__init__(parameters, learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise NeuralNetworkError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self._velocity = [np.zeros_like(p.data) for p in self._parameters]

    def step(self) -> None:
        for parameter, velocity in zip(self._parameters, self._velocity):
            if parameter.grad is None:
                continue
            velocity *= self.momentum
            velocity -= self.learning_rate * parameter.grad
            parameter.data = parameter.data + velocity


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        learning_rate: float = 1e-5,
        *,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__(parameters, learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise NeuralNetworkError(
                f"betas must be in [0, 1), got {beta1}, {beta2}"
            )
        if epsilon <= 0.0:
            raise NeuralNetworkError(f"epsilon must be > 0, got {epsilon}")
        self.beta1, self.beta2, self.epsilon = float(beta1), float(beta2), float(epsilon)
        self._step_count = 0
        self._first_moment = [np.zeros_like(p.data) for p in self._parameters]
        self._second_moment = [np.zeros_like(p.data) for p in self._parameters]

    @property
    def step_count(self) -> int:
        """Number of updates applied so far."""
        return self._step_count

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for parameter, m, v in zip(
            self._parameters, self._first_moment, self._second_moment
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


class FlatOptimizer(Optimizer):
    """Optimiser whose parameters are views into one contiguous buffer.

    On construction every parameter's ``data`` array is re-bound
    (values preserved) to a slice of a single flat float64 vector, so a
    full update — gradient gather, global-norm clip, and the first-order
    rule — is a handful of whole-buffer array operations instead of a
    Python loop over ``N`` parameters. The arithmetic is elementwise, so
    each parameter receives bitwise the numbers the per-parameter
    reference optimiser produces.

    Callers that compute gradients themselves (the fused PPO update) can
    write them directly into :attr:`grad_views` and call
    :meth:`fused_step` with ``from_views=True``, skipping the per-tensor
    ``.grad`` round trip entirely. If any code re-binds a parameter's
    ``data`` (``Module.load_state_dict`` does), the next step re-adopts
    the new values into the flat buffer transparently.

    Unlike :func:`clip_grad_norm`, the fused clip scales the optimiser's
    private gradient buffer, not the parameters' ``.grad`` arrays.

    Parameters are adopted in C order (the layout every ``nn.init``
    scheme guarantees); supplying a Fortran-ordered parameter would
    change its memory layout and hence layout-sensitive BLAS results.
    """

    # Segment starts are padded to 64-byte boundaries so every parameter
    # view keeps the alignment class of a standalone numpy allocation —
    # BLAS kernels (notably the batch-1 matvec) pick summation orders by
    # operand alignment, and an 8-byte-odd view would break the bitwise
    # contract with the never-rebound reference network.
    _ALIGN = 8  # float64 elements per 64 bytes

    def __init__(self, parameters: Iterable[Tensor], learning_rate: float) -> None:
        super().__init__(parameters, learning_rate)
        segments: list[tuple[int, int]] = []
        cursor = 0
        for parameter in self._parameters:
            size = int(parameter.data.size)
            segments.append((cursor, size))
            cursor += -(-size // self._ALIGN) * self._ALIGN
        self._segments = segments
        self._size = cursor
        self._theta = np.zeros(self._size, dtype=np.float64)
        self._grad = np.zeros(self._size, dtype=np.float64)
        # Step scratch: the update rules run allocation-free through these
        # (elementwise ops with the reference association order, so out=
        # changes no bits — only where the temporaries live).
        self._scratch_a = np.zeros(self._size, dtype=np.float64)
        self._scratch_b = np.zeros(self._size, dtype=np.float64)
        self._views: list = []
        self._grad_views: list = []
        for parameter, (start, size) in zip(self._parameters, segments):
            view = self._theta[start : start + size].reshape(parameter.data.shape)
            view[...] = parameter.data
            parameter.data = view
            self._views.append(view)
            self._grad_views.append(
                self._grad[start : start + size].reshape(view.shape)
            )

    @property
    def flat_parameters(self):
        """The contiguous parameter vector (the parameters view into it;
        segments are 64-byte aligned, so padding cells — always zero —
        sit between them)."""
        return self._theta

    @property
    def flat_grad(self):
        """The contiguous gradient buffer backing :attr:`grad_views`."""
        return self._grad

    @property
    def grad_views(self) -> list:
        """Per-parameter views into :attr:`flat_grad`, in parameter order."""
        return list(self._grad_views)

    def _adopt(self) -> None:
        """Re-attach any parameter whose ``data`` was re-bound elsewhere."""
        for parameter, view in zip(self._parameters, self._views):
            if parameter.data is not view:
                view[...] = parameter.data
                parameter.data = view

    def _begin_step(self) -> None:
        """Per-step bookkeeping before the update (e.g. Adam's counter)."""

    def _flat_grad_norm(self) -> float:
        """Global L2 norm of the whole gradient buffer.

        Bitwise-equal to :func:`global_grad_norm` over the per-parameter
        views: one squared-multiply over the flat buffer, then per-segment
        slice sums accumulated left-to-right (each 1-D slice covers the
        same C-contiguous memory as its reshaped view, so numpy's pairwise
        reduction returns the identical bits; padding cells are outside
        every slice). Saves the per-view square allocations and the
        stack/cumsum round trip on the per-update hot path.
        """
        squares = self._scratch_a
        np.multiply(self._grad, self._grad, out=squares)
        total = 0.0
        for start, size in self._segments:
            total += float(squares[start : start + size].sum())
        return math.sqrt(total)

    def _apply_flat(self) -> None:
        """Apply the update rule to the whole flat buffer at once."""
        raise NotImplementedError

    def _apply_segments(self, active: list[int]) -> None:
        """Apply the update rule to the given parameter segments only."""
        raise NotImplementedError

    def fused_step(
        self, *, max_grad_norm: float | None = None, from_views: bool = False
    ) -> float | None:
        """Gather gradients, optionally clip, and apply one fused update.

        With ``from_views=True`` the caller has already written every
        gradient into :attr:`grad_views` and all parameters participate;
        otherwise gradients are gathered from each parameter's ``.grad``
        and parameters with ``grad is None`` are skipped, exactly like
        the per-parameter reference optimisers.

        Returns the pre-clip global gradient norm when ``max_grad_norm``
        is given (matching :func:`clip_grad_norm`), else ``None``.
        """
        self._adopt()
        if from_views:
            active = list(range(len(self._parameters)))
        else:
            active = []
            for index, parameter in enumerate(self._parameters):
                if parameter.grad is not None:
                    self._grad_views[index][...] = parameter.grad
                    active.append(index)
        norm: float | None = None
        if max_grad_norm is not None:
            if max_grad_norm <= 0.0:
                raise NeuralNetworkError(f"max_norm must be > 0, got {max_grad_norm}")
            norm = (
                self._flat_grad_norm()
                if len(active) == len(self._parameters)
                else global_grad_norm([self._grad_views[i] for i in active])
            )
            if norm > max_grad_norm and norm > 0.0:
                scale = max_grad_norm / norm
                if len(active) == len(self._parameters):
                    self._grad *= scale
                else:
                    for index in active:
                        self._grad_views[index] *= scale
        self._begin_step()
        if len(active) == len(self._parameters):
            self._apply_flat()
        elif active:
            self._apply_segments(active)
        return norm

    def step(self) -> None:
        self.fused_step()


class FlatSGD(FlatOptimizer):
    """Fused flat-buffer SGD, bitwise-equal to :class:`SGD`."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        learning_rate: float,
        *,
        momentum: float = 0.0,
    ) -> None:
        super().__init__(parameters, learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise NeuralNetworkError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self._velocity = np.zeros(self._size, dtype=np.float64)

    def _apply_flat(self) -> None:
        velocity = self._velocity
        scaled = self._scratch_a
        velocity *= self.momentum
        np.multiply(self._grad, self.learning_rate, out=scaled)
        velocity -= scaled
        self._theta += velocity

    def _apply_segments(self, active: list[int]) -> None:
        for index in active:
            start, size = self._segments[index]
            end = start + size
            velocity = self._velocity[start:end]
            velocity *= self.momentum
            velocity -= self.learning_rate * self._grad[start:end]
            self._theta[start:end] += velocity


class FlatAdam(FlatOptimizer):
    """Fused flat-buffer Adam, bitwise-equal to :class:`Adam`."""

    def __init__(
        self,
        parameters: Iterable[Tensor],
        learning_rate: float = 1e-5,
        *,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__(parameters, learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise NeuralNetworkError(
                f"betas must be in [0, 1), got {beta1}, {beta2}"
            )
        if epsilon <= 0.0:
            raise NeuralNetworkError(f"epsilon must be > 0, got {epsilon}")
        self.beta1, self.beta2, self.epsilon = float(beta1), float(beta2), float(epsilon)
        self._step_count = 0
        self._first_moment = np.zeros(self._size, dtype=np.float64)
        self._second_moment = np.zeros(self._size, dtype=np.float64)

    @property
    def step_count(self) -> int:
        """Number of updates applied so far."""
        return self._step_count

    def _begin_step(self) -> None:
        self._step_count += 1

    def _apply_flat(self) -> None:
        # Allocation-free replica of the reference rule: every out= op is
        # elementwise with the reference's association (and scalar factors
        # commuted, which multiplication rounding permits), so each cell
        # receives bitwise the per-parameter Adam numbers.
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        grad = self._grad
        m = self._first_moment
        v = self._second_moment
        a = self._scratch_a
        b = self._scratch_b
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=a)
        m += a
        v *= self.beta2
        np.multiply(grad, grad, out=a)  # grad**2: one multiply, one rounding
        a *= 1.0 - self.beta2
        v += a
        np.divide(m, bias1, out=a)  # m_hat
        a *= self.learning_rate
        np.divide(v, bias2, out=b)  # v_hat
        np.sqrt(b, out=b)
        b += self.epsilon
        a /= b
        self._theta -= a

    def _apply_segments(self, active: list[int]) -> None:
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for index in active:
            start, size = self._segments[index]
            end = start + size
            grad = self._grad[start:end]
            m = self._first_moment[start:end]
            v = self._second_moment[start:end]
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            self._theta[start:end] -= self.learning_rate * m_hat / (
                np.sqrt(v_hat) + self.epsilon
            )
