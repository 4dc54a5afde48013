"""The PPO gradient and optimiser step over the flat actor-critic.

:class:`repro.drl.ppo.PPOAgent` trains through :func:`ppo_update`: the
loss of Eqs. (15)–(17) and its gradient as straight numpy over the views
of :class:`repro.drl.policy.ActorCritic`, written into :class:`FlatAdam`'s
contiguous gradient buffer, then one whole-buffer clip-and-Adam step.
There is no autograd graph: each pull-back expression is spelled out, in
the association order a reverse-mode engine evaluates it.

Workspaces: past the forward pass, an update allocates nothing. Its loss
terms and backward intermediates live in one :class:`UpdateWorkspace` for
the minibatch row count, which :class:`FlatAdam` keeps
(:meth:`FlatAdam.workspace`), and each op writes its result with
``out=``: into the workspace, or straight into :attr:`FlatAdam.grad_views`
for the parameter gradients. ``out=`` moves where a result lives, never
its bits. The rewrites that change the op sequence are exact identities
under IEEE 754, signed zeros and NaN included:

- ``x**2`` is ``x*x``, and ``clip`` against the nonzero ratio bounds
  ``1 ± ε`` is ``minimum(maximum(·))``;
- a ratio lies inside those bounds exactly when its clip leaves it
  unchanged;
- the surrogate's two branch weights are looked up from a per-row-count
  table that holds the very products the reference's mask arithmetic
  rounds to;
- a one-element sum is its element, and adding zeros is a copy, whenever
  the element is not ``-0.0``, which a square and a sum or difference with
  a nonzero constant never are (:meth:`FlatAdam.grad_norm`'s one-element
  segments, one-dim log-densities, the entropy rows);
- dividing by a bias correction that has rounded to 1.0 is skipped.

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
from functools import partial

import numpy as np

from repro.drl.policy import LOG_SQRT_2PI, ActorCritic
from repro.errors import GradientError, NeuralNetworkError

__all__ = ["FlatAdam", "UpdateStats", "UpdateWorkspace", "ppo_update"]


@dataclass(frozen=True)
class UpdateStats:
    """Diagnostics of one PPO gradient step."""

    policy_loss: float
    value_loss: float
    entropy: float
    clip_fraction: float
    approx_kl: float
    grad_norm: float


class UpdateWorkspace:
    """The loss and backward buffers of :func:`ppo_update` on a
    ``rows``-row batch, plus the surrogate's branch weights, which depend
    on the row count alone.
    """

    def __init__(self, network: ActorCritic, rows: int) -> None:
        self.rows = rows
        action_shape = (rows, network.action_dim)
        self.advantages = np.empty(rows)
        self.squares = np.empty(rows)
        self.ratio = np.empty(rows)
        self.clipped_ratio = np.empty(rows)
        self.unclipped = np.empty(rows)
        self.clipped = np.empty(rows)
        self.surrogate = np.empty(rows)
        # Row 0 is the unclipped branch, row 1 the clipped one.
        self.products = np.empty((2, rows))
        self.below = np.empty(rows, dtype=bool)
        self.at_most = np.empty(rows, dtype=bool)
        self.inside = np.empty(rows, dtype=bool)
        self.case = np.empty(rows, dtype=np.uint8)
        self.g_ratio = np.empty(rows)
        self.vdiff = np.empty(rows)
        self.g_vdiff = np.empty(rows)
        # Fixed views the update would otherwise rebuild per call.
        self.at_most_bytes = self.at_most.view(np.uint8)
        self.below_bytes = self.below.view(np.uint8)
        self.ratio_column = self.ratio[:, np.newaxis]
        self.g_ratio_column = self.g_ratio[:, np.newaxis]
        self.g_vpre = self.g_vdiff[:, np.newaxis]
        self.g_per_dim = np.empty(action_shape)
        self.g_half = np.empty(action_shape)
        self.g_standardized = np.empty(action_shape)
        self.g_mean = np.empty(action_shape)
        self.entropy_rows = np.empty(action_shape)
        self.diff = np.empty(action_shape)
        self.g_critic = np.empty((rows, network.hidden_sizes[-1]))
        # grads[i] is the loss gradient at trunk layer i's output;
        # derivs[i] turns into the one at its pre-activation.
        self.grads = [np.empty((rows, width)) for width in network.hidden_sizes]
        self.derivs = [np.empty((rows, width)) for width in network.hidden_sizes]
        # Transposed weight views the backward pass multiplies by
        # (parameter views never rebind).
        self.trunk_weights_t = [weight.T for weight, _ in network.trunk]
        self.actor_weight_t = network.actor_head[0].T
        self.critic_weight_t = network.critic_head[0].T
        # The reference weighs the unclipped branch by
        # g·(smaller + 0.5·tie) and the clipped one by
        # g·(¬smaller ∧ ¬tie) + (0.5·g)·tie, with g = -1/rows, so each row
        # takes one of three products per branch. The table holds them as
        # those expressions round, signed zeros included, indexed by
        # (u <= c) + (u < c): 0 neither (or NaN), 1 tie, 2 smaller.
        g_surr = -1.0 * (1.0 / rows)
        half = g_surr * 0.5
        self.branch_weights = np.array(
            [
                [g_surr * 0.0, g_surr * 0.5, g_surr * 1.0],
                [
                    g_surr * 1.0 + half * 0.0,
                    g_surr * 0.0 + half * 1.0,
                    g_surr * 0.0 + half * 0.0,
                ],
            ]
        )


class FlatAdam:
    """Adam (Kingma & Ba, 2015) with bias correction over a network's
    :attr:`~repro.drl.policy.ActorCritic.flat_parameters`.

    Gradients are written into :attr:`grad_views` (per-parameter views of
    :attr:`flat_grad`, laid out like the parameters); :meth:`step` then
    clips by the global norm and applies the update to the whole buffer in
    a handful of allocation-free array operations. Each cell receives
    bitwise the numbers a per-parameter Adam loop produces. The optimizer
    also keeps :func:`ppo_update`'s workspaces (:meth:`workspace`).
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
        self._network = network
        self._theta = network.flat_parameters
        self.flat_grad = np.zeros_like(self._theta)
        self.grad_views = network.views_of(self.flat_grad)
        size = self._theta.size
        self._first_moment = np.zeros(size, dtype=np.float64)
        self._second_moment = np.zeros(size, dtype=np.float64)
        # Step scratch: the update runs allocation-free through these
        # (elementwise ops with the reference association order, so out=
        # changes no bits — only where the temporaries live).
        self._scratch_a = np.zeros(size, dtype=np.float64)
        self._squares = np.zeros(size, dtype=np.float64)
        # Each parameter's sum of squared gradients, padding excluded, in
        # canonical order. A one-element sum is its element (a square is
        # never -0.0), so those are read, not reduced.
        self._square_sums = [
            self._squares[start : start + count].item
            if count == 1
            else partial(np.add.reduce, self._squares[start : start + count])
            for start, count, _ in network.segments
        ]
        self._workspace: UpdateWorkspace | None = None

    def workspace(self, rows: int) -> UpdateWorkspace:
        """The :class:`UpdateWorkspace` for ``rows``-row minibatches: kept
        while the minibatch size repeats, rebuilt when it changes."""
        workspace = self._workspace
        if workspace is None or workspace.rows != rows:
            workspace = self._workspace = UpdateWorkspace(self._network, rows)
        return workspace

    def grad_norm(self) -> float:
        """Global L2 norm of the gradient buffer.

        One squared-multiply over the flat buffer, then per-segment sums
        accumulated left to right: the association order of the
        per-parameter ``sqrt(sum((g**2).sum() for g in grads))`` loop, so
        the result carries the same bits. The squares stay in place for
        :meth:`step`.
        """
        np.multiply(self.flat_grad, self.flat_grad, out=self._squares)
        total = 0.0
        for square_sum in self._square_sums:
            total += float(square_sum())
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
        squares = self._squares
        if norm > max_grad_norm and norm > 0.0:
            grad *= max_grad_norm / norm
            np.multiply(grad, grad, out=squares)
        # Otherwise grad_norm's squares are grad**2 already: one multiply,
        # one rounding either way.
        self.step_count += 1
        # Allocation-free replica of the per-parameter rule: every out= op
        # is elementwise with the reference's association (and scalar
        # factors commuted, which multiplication rounding permits).
        beta1, beta2 = self.beta1, self.beta2
        bias1 = 1.0 - beta1**self.step_count
        bias2 = 1.0 - beta2**self.step_count
        m = self._first_moment
        v = self._second_moment
        a = self._scratch_a
        m *= beta1
        np.multiply(grad, 1.0 - beta1, out=a)
        m += a
        v *= beta2
        squares *= 1.0 - beta2
        v += squares
        if bias1 == 1.0:
            # The correction has rounded away (~350 steps at beta1 0.9):
            # m / 1.0 is m, bit for bit, so skip the pass.
            np.multiply(m, self.learning_rate, out=a)
        else:
            np.divide(m, bias1, out=a)  # m_hat
            a *= self.learning_rate
        np.divide(v, bias2, out=squares)  # v_hat
        np.sqrt(squares, out=squares)
        squares += self.epsilon
        a /= squares
        self._theta -= a
        return norm


def ppo_update(
    network: ActorCritic, optimizer: FlatAdam, config, batch
) -> UpdateStats:
    """One PPO step on ``batch``: loss, gradient, clip and Adam update.

    ``config`` is a :class:`repro.drl.ppo.PPOConfig`. The intermediates
    live in ``optimizer.workspace(rows)``; gradients are written straight
    into ``optimizer.grad_views`` and applied with one
    :meth:`FlatAdam.step`, which raises :class:`GradientError` (leaving the
    network untouched) when the gradient is not finite.
    """
    cfg = config
    multiply, subtract, matmul = np.multiply, np.subtract, np.matmul
    reduce = np.add.reduce

    # ---------------- forward (data path of the autograd update) --------- #
    inputs, outs, mean, values = network.forward(batch.observations)
    features = outs[-1]
    actions = np.asarray(batch.actions, dtype=np.float64)
    if actions.shape != mean.shape:
        raise ValueError(
            f"actions shape {actions.shape} != mean shape {mean.shape}"
        )
    inv_std, standardized, log_probs = network.log_prob_terms(actions, mean)
    batch_size = mean.shape[0]
    ws = optimizer.workspace(batch_size)
    inv_batch = 1.0 / batch_size

    # Means and the standard deviation below are spelled out as numpy
    # computes them (sum, then divide by the count; the std is the
    # two-pass root of the mean squared deviation), so they carry the
    # same bits as ``.mean()``/``.std()`` without those calls' dispatch
    # overhead.
    advantages = np.asarray(batch.advantages, dtype=np.float64)
    if cfg.normalize_advantages and advantages.size > 1:
        count = advantages.size
        mean_advantage = reduce(advantages) / count
        centered = subtract(advantages, mean_advantage, out=ws.advantages)
        squares = multiply(centered, centered, out=ws.squares)
        std = math.sqrt(reduce(squares) / count)
        advantages = np.divide(centered, std + 1e-8, out=centered)

    old_log_probs = np.asarray(batch.old_log_probs, dtype=np.float64)
    returns = np.asarray(batch.returns, dtype=np.float64)

    # ---------------- loss terms (Eqs. 15–17) --------------------------- #
    ratio = subtract(log_probs, old_log_probs, out=ws.ratio)
    np.exp(ratio, out=ratio)  # Eq. (17)
    clip_lo, clip_hi = 1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon
    clipped_ratio = np.maximum(ratio, clip_lo, out=ws.clipped_ratio)
    np.minimum(clipped_ratio, clip_hi, out=clipped_ratio)
    unclipped = multiply(ratio, advantages, out=ws.unclipped)
    clipped = multiply(clipped_ratio, advantages, out=ws.clipped)
    vdiff = subtract(values, returns, out=ws.vdiff)

    # ---------------- backward (closure-for-closure replica) ------------ #
    # Loss seed 1.0; constant scalar gradients stay Python floats —
    # scalar·array is elementwise-identical to the autograd
    # constant-array·array products.
    np.less_equal(unclipped, clipped, out=ws.at_most)
    np.less(unclipped, clipped, out=ws.below)
    case = np.add(ws.at_most_bytes, ws.below_bytes, out=ws.case)
    products = np.take(
        ws.branch_weights, case, axis=1, out=ws.products, mode="clip"
    )
    # g_unclipped·A and g_clipped·A, then the clipped branch reaches the
    # ratio only inside the clip range (clip's pass-through mask).
    multiply(products, advantages, out=products)
    unclipped_term, clipped_term = products
    inside = np.equal(clipped_ratio, ratio, out=ws.inside)
    multiply(clipped_term, inside, out=clipped_term)
    g_ratio = np.add(unclipped_term, clipped_term, out=ws.g_ratio)
    # log_prob's per-dim sum broadcasts its gradient back over the action
    # dims; autograd accumulates that copy before the axis-0 reductions
    # below, whose order is part of the bitwise contract.
    g_per_dim = multiply(ws.g_ratio_column, ws.ratio_column, out=ws.g_per_dim)
    g_std_half = multiply(g_per_dim, -0.5, out=ws.g_half)
    multiply(g_std_half, standardized, out=g_std_half)
    # The shared self·self node sums its two equal contributions.
    g_standardized = np.add(g_std_half, g_std_half, out=ws.g_standardized)
    g_mean = multiply(g_standardized, inv_std, out=ws.g_mean)
    np.negative(g_mean, out=g_mean)

    g_vsq = (1.0 * cfg.value_coef) * inv_batch
    # The power rule's ``vdiff ** 1.0`` is ``vdiff`` bit for bit
    # (IEEE 754 pow with exponent 1 is the identity) — skip the pass.
    multiply(vdiff, g_vsq * 2.0, out=ws.g_vdiff)
    g_vpre = ws.g_vpre

    views = optimizer.grad_views
    depth = len(network.trunk)
    base = 1 + 2 * depth
    features_t = features.T
    matmul(features_t, g_mean, out=views[base])  # actor weight
    reduce(g_mean, axis=0, out=views[base + 1])  # actor bias
    matmul(features_t, g_vpre, out=views[base + 2])  # critic weight
    reduce(g_vpre, axis=0, out=views[base + 3])  # critic bias

    # log_std: three contributions, in autograd's accumulation order —
    # exp(-log_std) path, log-prob's -log_std term, entropy head.
    diff = subtract(actions, mean, out=ws.diff)
    g_inv_std = reduce(multiply(g_standardized, diff, out=diff), axis=0)
    g_ls_a = -(g_inv_std * inv_std)
    g_ls_b = -reduce(g_per_dim, axis=0)
    g_entropy = (-1.0 * cfg.entropy_coef) * inv_batch
    g_ls_c = reduce(np.full(g_mean.shape, g_entropy), axis=0)
    np.add(g_ls_a + g_ls_b, g_ls_c, out=views[0])

    # Trunk: actor contribution accumulates before critic (autograd
    # order; two-way addition, so again cosmetic).
    grads, derivs = ws.grads, ws.derivs
    grad = matmul(g_mean, ws.actor_weight_t, out=grads[-1])
    grad += matmul(g_vpre, ws.critic_weight_t, out=ws.g_critic)
    for index in range(depth - 1, -1, -1):
        out = outs[index]
        g_pre = multiply(out, out, out=derivs[index])
        subtract(1.0, g_pre, out=g_pre)
        multiply(grad, g_pre, out=g_pre)
        matmul(inputs[index].T, g_pre, out=views[1 + 2 * index])
        reduce(g_pre, axis=0, out=views[2 + 2 * index])
        if index > 0:
            grad = matmul(g_pre, ws.trunk_weights_t[index], out=grads[index - 1])

    # The entropy reads log_std, which the step moves. The reference adds
    # the per-dim entropy to a zero block; a copy is the same bits.
    entropy_rows = ws.entropy_rows
    entropy_rows[...] = network.log_std + (0.5 + LOG_SQRT_2PI)

    norm = optimizer.step(cfg.max_grad_norm)

    # ---------------- diagnostics (UpdateStats only) -------------------- #
    surrogate = np.minimum(unclipped, clipped, out=ws.surrogate)
    policy_objective = float(reduce(surrogate)) * inv_batch  # Eq. (15)
    value_loss = float(reduce(multiply(vdiff, vdiff, out=ws.squares))) * inv_batch
    entropy = float(reduce(reduce(entropy_rows, axis=-1))) * inv_batch
    deviation = subtract(ratio, 1.0, out=ws.squares)
    np.abs(deviation, out=deviation)
    outside = np.greater(deviation, cfg.clip_epsilon, out=ws.below)
    clipped_count = np.count_nonzero(outside)
    approx_kl = float(reduce(subtract(old_log_probs, log_probs, out=ws.squares)))
    return UpdateStats(
        policy_loss=-policy_objective,
        value_loss=value_loss,
        entropy=entropy,
        clip_fraction=clipped_count / batch_size,
        approx_kl=approx_kl / batch_size,
        grad_norm=float(norm),
    )
