"""Proximal Policy Optimization for the MSP pricing agent (Eqs. 14-19).

The update maximises the clipped surrogate minus the value-function error:

    L(θ) = E[ min(r_k A_k, f_clip(r_k) A_k) ] − c · E[(V_θ(S_k) − V^targ_k)²]
            + β · E[H(π_θ(·|o_k))]

with importance ratio ``r_k = π_θ(p_k|o_k) / π_θold(p_k|o_k)`` (Eq. 17) and
``f_clip`` the clip of Eq. (19). Entropy regularisation (β) is standard PPO
practice; it defaults to 0, the strictly-paper objective.

:class:`PPOAgent` evaluates this loss and its gradient in one graph-free
pass over the flat-parameter :class:`ActorCritic` (:func:`repro.drl.fused.ppo_update`)
and steps a flat-buffer Adam. The autograd formulation of the same update
is ``ReferencePPOAgent`` in ``tests/training_oracle.py``, over the graph
network of ``tests/autograd_oracle.py``; the tests pin the agent against
it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.drl.buffer import MiniBatch
from repro.drl.fused import FlatAdam, UpdateStats, ppo_update
from repro.drl.policy import ActorCritic
from repro.errors import ConfigurationError
from repro.utils.rng import SeedLike
from repro.utils.validation import require_non_negative, require_positive

__all__ = ["PPOConfig", "UpdateStats", "PPOAgent"]


@dataclass(frozen=True)
class PPOConfig:
    """PPO hyper-parameters (paper defaults from Sec. V-A)."""

    learning_rate: float = 1e-5
    clip_epsilon: float = 0.2
    value_coef: float = 0.5
    entropy_coef: float = 0.0
    max_grad_norm: float = 0.5
    normalize_advantages: bool = True

    def __post_init__(self) -> None:
        # Every numeric knob must be finite: NaN slips past plain range
        # comparisons, and checkpoint metadata feeds these values in.
        require_positive("learning_rate", self.learning_rate)
        if not 0.0 < self.clip_epsilon < 1.0:
            raise ConfigurationError(
                f"clip_epsilon must be in (0, 1), got {self.clip_epsilon}"
            )
        require_non_negative("value_coef", self.value_coef)
        require_non_negative("entropy_coef", self.entropy_coef)
        require_positive("max_grad_norm", self.max_grad_norm)


class PPOAgent:
    """A PPO learner wrapping a shared-trunk :class:`ActorCritic`.

    Action sampling and value evaluation are the network's own forward
    pass; the update is :func:`repro.drl.fused.ppo_update` over a
    :class:`repro.drl.fused.FlatAdam` on the network's parameter buffer:
    no autograd graph, gradients written into one contiguous buffer, one
    fused optimiser step. The test suite pins every method bitwise against
    an autograd reference agent.
    """

    def __init__(self, network: ActorCritic, config: PPOConfig | None = None) -> None:
        self.network = network
        self.config = config if config is not None else PPOConfig()
        self.optimizer = FlatAdam(network, learning_rate=self.config.learning_rate)

    def act(
        self,
        observation: np.ndarray,
        *,
        seed: SeedLike = None,
        deterministic: bool = False,
    ) -> tuple[np.ndarray, float, float]:
        """Sample ``(raw_action, log_prob, value)`` for one observation."""
        return self.network.act(observation, seed=seed, deterministic=deterministic)

    def act_batch(
        self,
        observations: np.ndarray,
        *,
        seed: SeedLike = None,
        deterministic: bool = False,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batched sampling path: one forward pass for ``(E, obs_dim)``."""
        return self.network.act_batch(
            observations, seed=seed, deterministic=deterministic
        )

    def value(self, observation: np.ndarray) -> float:
        """Critic value for a single observation."""
        obs = np.asarray(observation, dtype=np.float64).reshape(1, -1)
        return float(self.value_batch(obs)[0])

    def value_batch(self, observations: np.ndarray) -> np.ndarray:
        """Critic values for an observation batch, shape ``(E,)``."""
        return self.network.value_batch(observations)

    def update(self, batch: MiniBatch) -> UpdateStats:
        """One gradient step on a mini-batch (Eq. 14).

        Raises :class:`repro.errors.GradientError`, with the network and
        optimiser state untouched, if the batch yields a non-finite
        gradient.
        """
        return ppo_update(self.network, self.optimizer, self.config, batch)
