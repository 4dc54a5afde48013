"""Autograd tests for the test oracle's engine (``tests/autograd_oracle.py``):
every op's gradient against central finite differences."""

import numpy as np
import pytest

from autograd_oracle import Tensor, no_grad

from repro.errors import GradientError


def gradcheck(fn, *arrays, eps=1e-6, rtol=1e-5, atol=1e-7):
    """Compare analytic gradients of ``fn(*tensors).sum()`` to numeric."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    out = fn(*tensors)
    loss = out.sum() if out.size > 1 else out
    loss.backward()
    for index, array in enumerate(arrays):
        numeric = np.zeros_like(np.asarray(array, dtype=np.float64))
        flat = numeric.reshape(-1)
        base = np.asarray(array, dtype=np.float64)
        for j in range(base.size):
            plus = base.copy().reshape(-1)
            plus[j] += eps
            minus = base.copy().reshape(-1)
            minus[j] -= eps
            args_p = [
                Tensor(plus.reshape(base.shape)) if k == index else Tensor(arrays[k])
                for k in range(len(arrays))
            ]
            args_m = [
                Tensor(minus.reshape(base.shape)) if k == index else Tensor(arrays[k])
                for k in range(len(arrays))
            ]
            f_p = fn(*args_p)
            f_m = fn(*args_m)
            f_p = f_p.sum() if f_p.size > 1 else f_p
            f_m = f_m.sum() if f_m.size > 1 else f_m
            flat[j] = (f_p.item() - f_m.item()) / (2.0 * eps)
        np.testing.assert_allclose(
            tensors[index].grad, numeric, rtol=rtol, atol=atol,
            err_msg=f"gradient mismatch for input {index}",
        )


RNG = np.random.default_rng(0)
A = RNG.normal(size=(3, 4))
B = RNG.normal(size=(3, 4))
M1 = RNG.normal(size=(3, 4))
M2 = RNG.normal(size=(4, 2))
POS = np.abs(RNG.normal(size=(3, 4))) + 0.5


class TestArithmeticGradients:
    def test_add(self):
        gradcheck(lambda x, y: x + y, A, B)

    def test_add_broadcast_bias(self):
        gradcheck(lambda x, b: x + b, A, RNG.normal(size=(4,)))

    def test_sub(self):
        gradcheck(lambda x, y: x - y, A, B)

    def test_rsub_scalar(self):
        gradcheck(lambda x: 3.0 - x, A)

    def test_mul(self):
        gradcheck(lambda x, y: x * y, A, B)

    def test_mul_scalar_broadcast(self):
        gradcheck(lambda x, s: x * s, A, np.array([2.0]))

    def test_div(self):
        gradcheck(lambda x, y: x / y, A, POS)

    def test_rdiv_scalar(self):
        gradcheck(lambda x: 2.0 / x, POS)

    def test_neg(self):
        gradcheck(lambda x: -x, A)

    def test_pow(self):
        gradcheck(lambda x: x**3.0, A)

    def test_pow_half_on_positive(self):
        gradcheck(lambda x: x**0.5, POS, rtol=1e-4)

    def test_matmul(self):
        gradcheck(lambda x, y: x @ y, M1, M2)

    def test_pow_non_scalar_exponent_rejected(self):
        with pytest.raises(TypeError):
            Tensor(A) ** Tensor(B)


class TestNonlinearityGradients:
    def test_tanh(self):
        gradcheck(lambda x: x.tanh(), A)

    def test_relu_away_from_kink(self):
        shifted = A + np.where(A >= 0, 0.5, -0.5)  # keep off the kink
        gradcheck(lambda x: x.relu(), shifted)

    def test_exp(self):
        gradcheck(lambda x: x.exp(), A, rtol=1e-4)

    def test_log(self):
        gradcheck(lambda x: x.log(), POS)

    def test_sigmoid(self):
        gradcheck(lambda x: x.sigmoid(), A)

    def test_clamp_interior_and_exterior(self):
        data = np.array([[-2.0, -0.5, 0.5, 2.0]])
        tensor = Tensor(data, requires_grad=True)
        tensor.clamp(-1.0, 1.0).sum().backward()
        np.testing.assert_array_equal(tensor.grad, [[0.0, 1.0, 1.0, 0.0]])

    def test_clamp_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            Tensor(A).clamp(1.0, -1.0)

    def test_minimum_routes_gradient(self):
        x = Tensor(np.array([1.0, 5.0]), requires_grad=True)
        y = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        x.minimum(y).sum().backward()
        np.testing.assert_array_equal(x.grad, [1.0, 0.0])
        np.testing.assert_array_equal(y.grad, [0.0, 1.0])

    def test_minimum_tie_splits(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        y = Tensor(np.array([2.0]), requires_grad=True)
        x.minimum(y).sum().backward()
        assert x.grad[0] == pytest.approx(0.5)
        assert y.grad[0] == pytest.approx(0.5)


class TestReductionGradients:
    def test_sum_all(self):
        gradcheck(lambda x: x.sum(), A)

    def test_sum_axis0(self):
        gradcheck(lambda x: x.sum(axis=0), A)

    def test_sum_axis1_keepdims(self):
        gradcheck(lambda x: x.sum(axis=1, keepdims=True), A)

    def test_mean_all(self):
        gradcheck(lambda x: x.mean(), A)

    def test_mean_axis(self):
        gradcheck(lambda x: x.mean(axis=0), A)

    def test_reshape(self):
        gradcheck(lambda x: (x.reshape(4, 3) * 2.0), A)

    def test_squeeze(self):
        data = RNG.normal(size=(3, 1))
        gradcheck(lambda x: x.squeeze(-1), data)

    def test_squeeze_wrong_axis_rejected(self):
        with pytest.raises(ValueError):
            Tensor(A).squeeze(-1)

    def test_concatenate(self):
        gradcheck(lambda x, y: Tensor.concatenate([x, y], axis=1), A, B)


class TestGraphMechanics:
    def test_shared_subgraph_accumulates(self):
        # y = x*x + x: dy/dx = 2x + 1, with x used twice.
        x = Tensor(np.array([3.0]), requires_grad=True)
        (x * x + x).backward()
        assert x.grad[0] == pytest.approx(7.0)

    def test_diamond_graph(self):
        # z = (x + x) * (x * 2): dz/dx = 8x.
        x = Tensor(np.array([1.5]), requires_grad=True)
        ((x + x) * (x * 2.0)).backward()
        assert x.grad[0] == pytest.approx(12.0)

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        y = x
        for _ in range(5000):
            y = y * 1.0001
        y.backward()
        assert x.grad is not None

    def test_backward_requires_scalar_without_seed(self):
        x = Tensor(A, requires_grad=True)
        with pytest.raises(GradientError):
            (x * 2.0).backward()

    def test_backward_with_seed_gradient(self):
        x = Tensor(A, requires_grad=True)
        (x * 2.0).backward(np.ones_like(A))
        np.testing.assert_allclose(x.grad, 2.0 * np.ones_like(A))

    def test_backward_on_leaf_without_grad_rejected(self):
        with pytest.raises(GradientError):
            Tensor(A).backward()

    def test_no_grad_blocks_graph(self):
        x = Tensor(A, requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert (x * 2.0).requires_grad  # recording resumes on exit

    def test_detach(self):
        x = Tensor(A, requires_grad=True)
        y = (x * 2.0).detach()
        assert not y.requires_grad

    def test_zero_grad(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * 2.0).backward()
        x.zero_grad()
        assert x.grad is None

    def test_repeated_backward_accumulates(self):
        x = Tensor(np.array([1.0]), requires_grad=True)
        (x * 2.0).backward()
        (x * 3.0).backward()
        assert x.grad[0] == pytest.approx(5.0)

    def test_item_on_nonscalar_rejected(self):
        with pytest.raises(ValueError):
            Tensor(A).item()

    def test_constructors(self):
        assert Tensor.zeros(2, 3).shape == (2, 3)
        assert Tensor.ones(4).data.sum() == 4.0
        assert Tensor(A).ndim == 2
