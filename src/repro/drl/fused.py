"""Fused (graph-free) execution of the actor-critic training hot path.

This is the only PPO execution path: :class:`repro.drl.ppo.PPOAgent`
compiles one :class:`FusedActorCritic` per network. It replays the
arithmetic of the autograd engine in ``nn/tensor.py`` — every forward op
and every pull-back expression, in the same association order — as
straight numpy code, writing
gradients directly into a :class:`repro.nn.optim.FlatOptimizer`'s
contiguous gradient buffer. Building and walking the autograd graph (about
50 Tensor nodes and one Python closure per node per backward for a
fig2-style update) is what this avoids.

Bitwise contract (pinned by ``tests/test_drl_fused.py`` and
``tests/test_drl_vector_trainer.py`` against the autograd reference agent
in ``tests/training_oracle.py``):

- :meth:`FusedActorCritic.act_batch` / :meth:`value_batch` reproduce
  ``ActorCritic.act_batch`` and the graph critic exactly, including RNG
  consumption (one Gaussian block per call);
- :meth:`FusedActorCritic.update` reproduces the autograd PPO update
  exactly: identical ``UpdateStats`` and identical post-step parameters.
  The only subtlety is gradient-accumulation order at shared graph nodes;
  the one node with three incoming contributions is ``log_std``, whose
  autograd accumulation order (log-prob's ``exp(-log_std)`` path, then its
  ``-log_std`` term, then the entropy head) is replicated literally.

Only the exact architecture ``ActorCritic`` builds — alternating
Linear/Tanh trunk, Linear heads, free ``log_std`` — is supported;
:meth:`FusedActorCritic.compile` raises :class:`ConfigurationError` for
anything else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.nn.distributions import _LOG_SQRT_2PI
from repro.nn.modules import Linear, Tanh
from repro.nn.optim import FlatOptimizer
from repro.utils.rng import SeedLike, as_generator

__all__ = ["FusedActorCritic", "UpdateStats"]


@dataclass(frozen=True)
class UpdateStats:
    """Diagnostics of one PPO gradient step."""

    policy_loss: float
    value_loss: float
    entropy: float
    clip_fraction: float
    approx_kl: float
    grad_norm: float


class FusedActorCritic:
    """Graph-free twin of an :class:`repro.drl.policy.ActorCritic`.

    Holds references to the network's parameter *tensors* (not their data
    arrays), so weight updates and ``load_state_dict`` re-binds are always
    visible — every call reads ``parameter.data`` afresh.
    """

    def __init__(self, network, trunk_linears: list[Linear]) -> None:
        self._network = network
        self._trunk = [(layer.weight, layer.bias) for layer in trunk_linears]
        self._actor = (network.actor_head.weight, network.actor_head.bias)
        self._critic = (network.critic_head.weight, network.critic_head.bias)
        self._log_std = network.log_std
        self.obs_dim = int(network.obs_dim)
        self.action_dim = int(network.action_dim)

    @classmethod
    def compile(cls, network) -> "FusedActorCritic":
        """Build the fused twin of a canonical alternating Linear/Tanh
        ``ActorCritic``; raises :class:`ConfigurationError` for any other
        architecture."""
        trunk = getattr(getattr(network, "trunk", None), "_layers", None)
        actor = getattr(network, "actor_head", None)
        critic = getattr(network, "critic_head", None)
        log_std = getattr(network, "log_std", None)
        if (
            not trunk
            or len(trunk) % 2 != 0
            or not isinstance(actor, Linear)
            or not isinstance(critic, Linear)
            or critic.out_features != 1
            or log_std is None
            or getattr(log_std, "ndim", None) != 1
            or not getattr(log_std, "requires_grad", False)
        ):
            raise _unsupported(network)
        linears: list[Linear] = []
        for layer, expected in zip(trunk, [Linear, Tanh] * (len(trunk) // 2)):
            if not isinstance(layer, expected):
                raise _unsupported(network)
            if isinstance(layer, Linear):
                linears.append(layer)
        fused = cls(network, linears)
        # The flat optimizer and the fused backward both rely on the
        # canonical parameter order; verify by identity.
        expected_params = [log_std]
        for weight, bias in fused._trunk:
            expected_params += [weight, bias]
        expected_params += [*fused._actor, *fused._critic]
        if [id(p) for p in network.parameters()] != [id(p) for p in expected_params]:
            raise _unsupported(network)
        return fused

    # ------------------------------------------------------------------ #
    # forward passes
    # ------------------------------------------------------------------ #
    def _check_observations(self, obs) -> None:
        if obs.ndim != 2 or obs.shape[1] != self.obs_dim:
            raise ConfigurationError(
                f"expected observations of shape (batch, {self.obs_dim}), "
                f"got {obs.shape}"
            )

    def _forward(self, obs):
        """Trunk + heads; returns (linear inputs, tanh outputs, mean, values).

        ``inputs[i]``/``outs[i]`` are the i-th trunk Linear's input and the
        following Tanh's output — retained for the backward pass.
        """
        inputs, outs = [], []
        x = obs
        for weight, bias in self._trunk:
            inputs.append(x)
            x = np.tanh(x @ weight.data + bias.data)
            outs.append(x)
        actor_w, actor_b = self._actor
        critic_w, critic_b = self._critic
        mean = x @ actor_w.data + actor_b.data
        vpre = x @ critic_w.data + critic_b.data
        values = np.squeeze(vpre, axis=-1)
        return inputs, outs, mean, values

    def _log_prob_data(self, actions, mean):
        """Data-path replica of ``DiagonalGaussian.log_prob`` internals."""
        log_std = self._log_std.data
        inv_std = np.exp(-log_std)
        standardized = (actions - mean) * inv_std
        per_dim = standardized * standardized * (-0.5) - log_std - _LOG_SQRT_2PI
        return inv_std, standardized, per_dim.sum(axis=-1)

    def act_batch(
        self,
        observations,
        *,
        seed: SeedLike = None,
        deterministic: bool = False,
    ):
        """Bitwise twin of ``ActorCritic.act_batch`` (no graph, no Tensor)."""
        rng = as_generator(seed)
        obs = np.asarray(observations, dtype=np.float64)
        self._check_observations(obs)
        _, _, mean, values = self._forward(obs)
        if deterministic:
            raws = mean.copy()
        else:
            # exp once per action dim, not per (batch, dim) copy — the
            # broadcast multiply pairs the identical operands elementwise,
            # so the sampled prices carry the exact same bits.
            std = np.exp(self._log_std.data)
            raws = mean + std * rng.normal(size=mean.shape)
        _, _, log_probs = self._log_prob_data(raws, mean)
        return raws, log_probs, values

    def value_batch(self, observations):
        """Critic values, bitwise-equal to the graph ``ActorCritic.value``."""
        obs = np.asarray(observations, dtype=np.float64)
        self._check_observations(obs)
        return self._forward(obs)[3]

    # ------------------------------------------------------------------ #
    # fused PPO update
    # ------------------------------------------------------------------ #
    def update(self, optimizer: FlatOptimizer, config, batch):
        """One PPO step, bitwise-equal to the autograd reference update.

        Gradients are written straight into ``optimizer.grad_views`` and
        applied with one :meth:`FlatOptimizer.fused_step` (which also does
        the global-norm clip). The parameters' ``.grad`` attributes are
        not populated.
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

        obs = np.asarray(batch.observations, dtype=np.float64)
        self._check_observations(obs)
        actions = np.asarray(batch.actions, dtype=np.float64)
        old_log_probs = np.asarray(batch.old_log_probs, dtype=np.float64)
        returns = np.asarray(batch.returns, dtype=np.float64)

        # ---------------- forward (data path of the autograd update) ----- #
        inputs, outs, mean, values = self._forward(obs)
        features = outs[-1]
        if actions.shape != mean.shape:
            raise ValueError(
                f"actions shape {actions.shape} != mean shape {mean.shape}"
            )
        batch_size = obs.shape[0]
        inv_b = 1.0 / batch_size
        inv_std, standardized, log_probs = self._log_prob_data(actions, mean)

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
        log_std = self._log_std.data
        action_dim = mean.shape[1]
        per_dim_entropy = log_std + (0.5 + _LOG_SQRT_2PI)
        entropy_value = (per_dim_entropy + np.zeros(mean.shape)).sum(
            axis=-1
        ).sum() * (1.0 / batch_size)

        # ---------------- backward (closure-for-closure replica) -------- #
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
        actor_w, _ = self._actor
        critic_w, _ = self._critic
        base = 1 + 2 * len(self._trunk)
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
        g_features = g_mean @ actor_w.data.T + g_vpre @ critic_w.data.T
        grad = g_features
        for index in range(len(self._trunk) - 1, -1, -1):
            weight, _ = self._trunk[index]
            g_pre = grad * (1.0 - outs[index] ** 2)
            views[1 + 2 * index][...] = inputs[index].T @ g_pre
            views[2 + 2 * index][...] = g_pre.sum(axis=0)
            if index > 0:
                grad = g_pre @ weight.data.T

        norm = optimizer.fused_step(
            max_grad_norm=cfg.max_grad_norm, from_views=True
        )

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


def _unsupported(network) -> ConfigurationError:
    return ConfigurationError(
        f"cannot fuse {type(network).__name__}: PPOAgent needs the "
        "alternating Linear/Tanh trunk, Linear heads and trainable log_std "
        "that ActorCritic builds"
    )
