"""Module/optimiser/distribution tests for the test oracle's graph
substrate (``tests/autograd_oracle.py``), plus the production
``orthogonal`` initialiser both networks draw their weights from."""

import numpy as np
import pytest
from autograd_oracle import (
    Adam,
    DiagonalGaussian,
    Linear,
    Sequential,
    Tanh,
    Tensor,
    clip_grad_norm,
    constant,
    zeros,
)
from scipy import stats

from repro.drl.policy import orthogonal
from repro.errors import NeuralNetworkError


def mlp(in_features, hidden_sizes, out_features, *, seed=0):
    """A Linear/Tanh stack with a linear output layer."""
    rng = np.random.default_rng(seed)
    sizes = [in_features, *hidden_sizes]
    layers = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        layers += [Linear(fan_in, fan_out, gain=float(np.sqrt(2.0)), seed=rng), Tanh()]
    return Sequential(*layers, Linear(sizes[-1], out_features, seed=rng))


class TestInit:
    def test_orthogonal_columns(self):
        w = orthogonal(8, 4, seed=0)
        gram = w.T @ w
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-10)

    def test_orthogonal_gain(self):
        w = orthogonal(8, 4, gain=3.0, seed=0)
        np.testing.assert_allclose(w.T @ w, 9.0 * np.eye(4), atol=1e-9)

    def test_orthogonal_wide(self):
        w = orthogonal(4, 8, seed=0)
        np.testing.assert_allclose(w @ w.T, np.eye(4), atol=1e-10)

    def test_orthogonal_deterministic(self):
        np.testing.assert_array_equal(orthogonal(5, 5, seed=1), orthogonal(5, 5, seed=1))

    def test_invalid_fans(self):
        with pytest.raises(ValueError):
            orthogonal(0, 4)
        with pytest.raises(ValueError):
            orthogonal(4, 0)

    def test_zeros_and_constant(self):
        assert zeros(3).sum() == 0.0
        np.testing.assert_array_equal(constant(-0.5, 2), [-0.5, -0.5])


class TestLinear:
    def test_forward_shape(self):
        layer = Linear(4, 3, seed=0)
        out = layer(Tensor(np.zeros((5, 4))))
        assert out.shape == (5, 3)

    def test_forward_math(self):
        layer = Linear(2, 2, seed=0)
        x = np.array([[1.0, 2.0]])
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected)

    def test_wrong_width_rejected(self):
        with pytest.raises(NeuralNetworkError):
            Linear(4, 3)(Tensor(np.zeros((5, 5))))

    def test_parameters_registered(self):
        layer = Linear(4, 3)
        params = list(layer.parameters())
        assert len(params) == 2  # weight + bias


class TestModuleInfrastructure:
    def test_mlp_parameter_count(self):
        # (12->64) + (64->64) + (64->1) weights + biases.
        net = mlp(12, (64, 64), 1, seed=0)
        expected = 12 * 64 + 64 + 64 * 64 + 64 + 64 * 1 + 1
        assert net.num_parameters() == expected

    def test_named_parameters_unique(self):
        net = mlp(4, (8,), 2, seed=0)
        names = [name for name, _ in net.named_parameters()]
        assert len(names) == len(set(names))

    def test_state_dict_round_trip(self):
        a = mlp(4, (8,), 2, seed=0)
        b = mlp(4, (8,), 2, seed=1)
        x = Tensor(np.random.default_rng(0).normal(size=(3, 4)))
        assert not np.allclose(a(x).data, b(x).data)
        b.load_state_dict(a.state_dict())
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_state_dict_mismatch_rejected(self):
        a = mlp(4, (8,), 2, seed=0)
        with pytest.raises(NeuralNetworkError, match="mismatch"):
            a.load_state_dict({"bogus": np.zeros(3)})

    def test_state_dict_shape_checked(self):
        a = mlp(4, (8,), 2, seed=0)
        state = a.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((1, 1))
        with pytest.raises(NeuralNetworkError, match="shape"):
            a.load_state_dict(state)

    def test_zero_grad_clears(self):
        net = mlp(2, (4,), 1, seed=0)
        out = net(Tensor(np.ones((1, 2)))).sum()
        out.backward()
        assert any(p.grad is not None for p in net.parameters())
        net.zero_grad()
        assert all(p.grad is None for p in net.parameters())

    def test_sequential_indexing(self):
        seq = Sequential(Linear(2, 3), Tanh(), Linear(3, 1))
        assert len(seq) == 3
        assert isinstance(seq[1], Tanh)


class TestAdam:
    def test_first_step_is_lr_sized(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam([p], learning_rate=0.01)
        (p * 5.0).backward()
        opt.step()
        # Bias-corrected first Adam step ≈ -lr * sign(grad).
        assert p.data[0] == pytest.approx(-0.01, rel=1e-4)

    def test_quadratic_convergence(self):
        p = Tensor(np.array([5.0]), requires_grad=True)
        opt = Adam([p], learning_rate=0.1)
        for _ in range(500):
            opt.zero_grad()
            ((p - 2.0) ** 2.0).sum().backward()
            opt.step()
        assert p.data[0] == pytest.approx(2.0, abs=1e-3)

    def test_step_count(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam([p], 0.01)
        (p * 1.0).backward()
        opt.step()
        assert opt.step_count == 1

    def test_skips_gradless_params(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([p], 0.01)
        opt.step()  # no backward happened
        assert p.data[0] == 1.0

    def test_empty_params_rejected(self):
        with pytest.raises(NeuralNetworkError):
            Adam([], 0.01)

    def test_invalid_hparams(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        with pytest.raises(NeuralNetworkError):
            Adam([p], -1.0)
        with pytest.raises(NeuralNetworkError):
            Adam([p], 0.1, beta1=1.0)
        with pytest.raises(NeuralNetworkError):
            Adam([p], 0.1, epsilon=0.0)


class TestClipGradNorm:
    def test_no_clip_below_max(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        (p * 3.0).backward()
        norm = clip_grad_norm([p], max_norm=10.0)
        assert norm == pytest.approx(3.0)
        assert p.grad[0] == pytest.approx(3.0)

    def test_clips_above_max(self):
        p = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        (p * Tensor(np.array([3.0, 4.0]))).sum().backward()
        norm = clip_grad_norm([p], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0)

    def test_invalid_max_norm(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        with pytest.raises(NeuralNetworkError):
            clip_grad_norm([p], 0.0)


class TestDiagonalGaussian:
    def _dist(self, mean=(0.5, -0.2), log_std=(0.1, -0.3)):
        return DiagonalGaussian(
            Tensor(np.array([list(mean)])), Tensor(np.array(list(log_std)))
        )

    def test_log_prob_matches_scipy(self):
        dist = self._dist()
        actions = np.array([[0.3, 0.1]])
        ours = dist.log_prob(actions).data[0]
        reference = (
            stats.norm(0.5, np.exp(0.1)).logpdf(0.3)
            + stats.norm(-0.2, np.exp(-0.3)).logpdf(0.1)
        )
        assert ours == pytest.approx(reference, rel=1e-10)

    def test_entropy_analytic(self):
        dist = self._dist()
        expected = sum(
            0.5 * np.log(2.0 * np.pi * np.e) + ls for ls in (0.1, -0.3)
        )
        assert dist.entropy().data[0] == pytest.approx(expected, rel=1e-10)

    def test_kl_to_self_zero(self):
        dist = self._dist()
        assert dist.kl_divergence(dist).data[0] == pytest.approx(0.0, abs=1e-12)

    def test_kl_nonnegative(self):
        a = self._dist()
        b = self._dist(mean=(1.0, 1.0), log_std=(0.5, 0.5))
        assert a.kl_divergence(b).data[0] > 0.0

    def test_sampling_statistics(self):
        mean = Tensor(np.tile([[1.0]], (200_000, 1)))
        dist = DiagonalGaussian(mean, Tensor(np.array([np.log(2.0)])))
        samples = dist.sample(seed=0)
        assert samples.mean() == pytest.approx(1.0, abs=0.02)
        assert samples.std() == pytest.approx(2.0, abs=0.02)

    def test_mode_is_mean(self):
        dist = self._dist()
        np.testing.assert_array_equal(dist.mode(), [[0.5, -0.2]])

    def test_log_prob_shape_checked(self):
        with pytest.raises(ValueError):
            self._dist().log_prob(np.zeros((2, 2)))

    def test_log_prob_differentiable(self):
        mean = Tensor(np.array([[0.0]]), requires_grad=True)
        dist = DiagonalGaussian(mean, Tensor(np.array([0.0])))
        dist.log_prob(np.array([[1.0]])).sum().backward()
        # d/dμ logN(x|μ,1) = (x-μ) = 1.
        assert mean.grad[0, 0] == pytest.approx(1.0)
