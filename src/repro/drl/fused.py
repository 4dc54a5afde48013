"""The PPO gradient and optimiser step over the flat actor-critic.

:class:`repro.drl.ppo.PPOAgent` trains through :func:`ppo_update`: the
loss of Eqs. (15)–(17) and its gradient as straight numpy over the views
of :class:`repro.drl.policy.ActorCritic`, written into :class:`FlatAdam`'s
contiguous gradient buffer, then one whole-buffer clip-and-Adam step.
There is no autograd graph: each pull-back expression is spelled out, in
the association order a reverse-mode engine evaluates it.

Bitwise contract (pinned by ``tests/test_drl_fused.py`` and
``tests/test_drl_vector_trainer.py`` against the graph network and
``ReferencePPOAgent`` of the test oracle): act/value outputs, every
:class:`UpdateStats` field and every post-step parameter equal the
autograd reference exactly, RNG consumption included. The one subtlety is
gradient accumulation at shared graph nodes; the node with three incoming
contributions is ``log_std``, whose accumulation order (log-prob's
``exp(-log_std)`` path, then its ``-log_std`` term, then the entropy head)
is replicated literally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.drl.policy import LOG_SQRT_2PI, ActorCritic
from repro.errors import GradientError, NeuralNetworkError

__all__ = ["FlatAdam", "UpdateStats", "ppo_update"]


@dataclass(frozen=True)
class UpdateStats:
    """Diagnostics of one PPO gradient step."""

    policy_loss: float
    value_loss: float
    entropy: float
    clip_fraction: float
    approx_kl: float
    grad_norm: float


class FlatAdam:
    """Adam (Kingma & Ba, 2015) with bias correction over a network's
    :attr:`~repro.drl.policy.ActorCritic.flat_parameters`.

    Gradients are written into :attr:`grad_views` (per-parameter views of
    :attr:`flat_grad`, laid out like the parameters); :meth:`step` then
    clips by the global norm and applies the update to the whole buffer in
    a handful of allocation-free array operations. Each cell receives
    bitwise the numbers a per-parameter Adam loop produces.
    """

    def __init__(
        self,
        network: ActorCritic,
        learning_rate: float = 1e-5,
        *,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        if not learning_rate > 0.0:
            raise NeuralNetworkError(f"learning_rate must be > 0, got {learning_rate}")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise NeuralNetworkError(
                f"betas must be in [0, 1), got {beta1}, {beta2}"
            )
        if not epsilon > 0.0:
            raise NeuralNetworkError(f"epsilon must be > 0, got {epsilon}")
        self.learning_rate = float(learning_rate)
        self.beta1, self.beta2, self.epsilon = float(beta1), float(beta2), float(epsilon)
        self.step_count = 0
        self._theta = network.flat_parameters
        self.flat_grad = np.zeros_like(self._theta)
        self.grad_views = network.views_of(self.flat_grad)
        self._segments = network.segments
        size = self._theta.size
        self._first_moment = np.zeros(size, dtype=np.float64)
        self._second_moment = np.zeros(size, dtype=np.float64)
        # Step scratch: the update runs allocation-free through these
        # (elementwise ops with the reference association order, so out=
        # changes no bits — only where the temporaries live).
        self._scratch_a = np.zeros(size, dtype=np.float64)
        self._scratch_b = np.zeros(size, dtype=np.float64)

    def grad_norm(self) -> float:
        """Global L2 norm of the gradient buffer.

        One squared-multiply over the flat buffer, then per-segment slice
        sums accumulated left to right: the association order of the
        per-parameter ``sqrt(sum((g**2).sum() for g in grads))`` loop, so
        the result carries the same bits.
        """
        squares = self._scratch_a
        np.multiply(self.flat_grad, self.flat_grad, out=squares)
        total = 0.0
        for start, size, _ in self._segments:
            total += float(squares[start : start + size].sum())
        return math.sqrt(total)

    def step(self, max_grad_norm: float) -> float:
        """Clip the gradient to ``max_grad_norm`` and apply one Adam update.

        Returns the pre-clip global gradient norm. A non-finite norm
        raises :class:`GradientError` before anything moves: parameters,
        moments and :attr:`step_count` stay as they were.
        """
        if not max_grad_norm > 0.0:
            raise NeuralNetworkError(f"max_norm must be > 0, got {max_grad_norm}")
        norm = self.grad_norm()
        if not math.isfinite(norm):
            raise GradientError(
                f"non-finite gradient norm {norm}; the update was skipped and "
                "the parameters are unchanged (check the batch for NaN or inf "
                "advantages, returns or observations)"
            )
        grad = self.flat_grad
        if norm > max_grad_norm and norm > 0.0:
            grad *= max_grad_norm / norm
        self.step_count += 1
        # Allocation-free replica of the per-parameter rule: every out= op
        # is elementwise with the reference's association (and scalar
        # factors commuted, which multiplication rounding permits).
        bias1 = 1.0 - self.beta1**self.step_count
        bias2 = 1.0 - self.beta2**self.step_count
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
        return norm


def ppo_update(
    network: ActorCritic, optimizer: FlatAdam, config, batch
) -> UpdateStats:
    """One PPO step on ``batch``: loss, gradient, clip and Adam update.

    ``config`` is a :class:`repro.drl.ppo.PPOConfig`. Gradients are written
    straight into ``optimizer.grad_views`` and applied with one
    :meth:`FlatAdam.step`, which raises :class:`GradientError` (leaving the
    network untouched) when the gradient is not finite.
    """
    cfg = config
    # Means and the standard deviation below are spelled out as numpy
    # computes them (sum, then divide by the count; the std is the
    # two-pass root of the mean squared deviation), so they carry the
    # same bits as ``.mean()``/``.std()`` without those calls' dispatch
    # overhead, about a tenth of a fig2-sized update.
    advantages = batch.advantages.astype(np.float64)
    if cfg.normalize_advantages and advantages.size > 1:
        count = advantages.size
        centered = advantages - advantages.sum() / count
        std = np.sqrt((centered * centered).sum() / count)
        advantages = centered / (std + 1e-8)

    actions = np.asarray(batch.actions, dtype=np.float64)
    old_log_probs = np.asarray(batch.old_log_probs, dtype=np.float64)
    returns = np.asarray(batch.returns, dtype=np.float64)

    # ---------------- forward (data path of the autograd update) --------- #
    inputs, outs, mean, values = network.forward(batch.observations)
    features = outs[-1]
    if actions.shape != mean.shape:
        raise ValueError(
            f"actions shape {actions.shape} != mean shape {mean.shape}"
        )
    batch_size = mean.shape[0]
    inv_std, standardized, log_probs = network.log_prob_terms(actions, mean)

    ratio = np.exp(log_probs - old_log_probs)  # Eq. (17)
    unclipped = ratio * advantages
    clip_lo, clip_hi = 1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon
    clipped_ratio = np.clip(ratio, clip_lo, clip_hi)
    clipped = clipped_ratio * advantages
    surrogate = np.minimum(unclipped, clipped)
    policy_objective = surrogate.sum() * (1.0 / batch_size)  # Eq. (15)
    vdiff = values - returns
    vsq = vdiff**2.0
    value_loss = vsq.sum() * (1.0 / batch_size)  # Eq. (16)
    action_dim = mean.shape[1]
    per_dim_entropy = network.log_std + (0.5 + LOG_SQRT_2PI)
    entropy_value = (per_dim_entropy + np.zeros(mean.shape)).sum(
        axis=-1
    ).sum() * (1.0 / batch_size)

    # ---------------- backward (closure-for-closure replica) ------------ #
    # Loss seed 1.0; constant scalar gradients stay Python floats —
    # scalar·array is elementwise-identical to the autograd
    # constant-array·array products.
    g_surr = -1.0 * (1.0 / batch_size)
    self_smaller = unclipped < clipped
    tie = unclipped == clipped
    inside = (ratio >= clip_lo) & (ratio <= clip_hi)
    g_unclipped = g_surr * (self_smaller + 0.5 * tie)
    g_clipped = g_surr * (~self_smaller & ~tie) + g_surr * 0.5 * tie
    # ratio's two contributions, unclipped path first (autograd order;
    # two-way float addition is commutative so order is cosmetic here).
    g_ratio = g_unclipped * advantages + (g_clipped * advantages) * inside
    g_log_probs = g_ratio * ratio
    # Contiguous copy: autograd accumulates a copy before the axis-0
    # reduction below, and reduction order is part of the bitwise
    # contract. (A one-dim action space needs no broadcast pass — the
    # expanded column already has the target shape.)
    expanded = np.expand_dims(g_log_probs, -1)
    if expanded.shape != (batch_size, action_dim):
        expanded = np.broadcast_to(expanded, (batch_size, action_dim))
    g_per_dim = expanded.copy()
    g_m1 = g_per_dim * (-0.5)
    g_std_half = g_m1 * standardized
    g_standardized = g_std_half + g_std_half  # shared self·self node
    g_diff = g_standardized * inv_std
    g_mean = -g_diff

    g_vsq = (1.0 * cfg.value_coef) * (1.0 / batch_size)
    # The power rule's ``vdiff ** 1.0`` is ``vdiff`` bit for bit
    # (IEEE 754 pow with exponent 1 is the identity) — skip the pass.
    g_vdiff = (g_vsq * 2.0) * vdiff
    g_vpre = np.expand_dims(g_vdiff, -1)

    views = optimizer.grad_views
    depth = len(network.trunk)
    base = 1 + 2 * depth
    views[base][...] = features.T @ g_mean  # actor weight
    views[base + 1][...] = g_mean.sum(axis=0)  # actor bias
    views[base + 2][...] = features.T @ g_vpre  # critic weight
    views[base + 3][...] = g_vpre.sum(axis=0)  # critic bias

    # log_std: three contributions, in autograd's accumulation order —
    # exp(-log_std) path, log-prob's -log_std term, entropy head.
    g_inv_std = (g_standardized * (actions - mean)).sum(axis=0)
    g_ls_a = -(g_inv_std * inv_std)
    g_ls_b = -(g_per_dim.sum(axis=0))
    g_entropy = (-1.0 * cfg.entropy_coef) * (1.0 / batch_size)
    g_ls_c = np.full((batch_size, action_dim), g_entropy).sum(axis=0)
    views[0][...] = (g_ls_a + g_ls_b) + g_ls_c

    # Trunk: actor contribution accumulates before critic (autograd
    # order; two-way addition, so again cosmetic).
    g_features = g_mean @ network.actor_head[0].T + g_vpre @ network.critic_head[0].T
    grad = g_features
    for index in range(depth - 1, -1, -1):
        g_pre = grad * (1.0 - outs[index] ** 2)
        views[1 + 2 * index][...] = inputs[index].T @ g_pre
        views[2 + 2 * index][...] = g_pre.sum(axis=0)
        if index > 0:
            grad = g_pre @ network.trunk[index][0].T

    norm = optimizer.step(cfg.max_grad_norm)

    clipped_count = (np.abs(ratio - 1.0) > cfg.clip_epsilon).sum()
    clip_fraction = float(clipped_count / batch_size)
    approx_kl = float((old_log_probs - log_probs).sum() / batch_size)
    return UpdateStats(
        policy_loss=float(-policy_objective),
        value_loss=float(value_loss),
        entropy=float(entropy_value),
        clip_fraction=clip_fraction,
        approx_kl=approx_kl,
        grad_norm=float(norm),
    )
