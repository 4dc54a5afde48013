"""Advantage estimation: discounted returns, Eq. (18), and GAE(λ).

The paper computes the advantage as the full-episode discounted return
minus the value baseline (its Eq. 18), which is exactly GAE with λ = 1.
We implement general GAE(λ) (the paper cites Schulman et al. [14]) over
``E`` trajectories at once; tests verify that λ = 1 reproduces Eq. (18)
and that every row is bitwise the scalar per-trajectory recursion kept in
``tests/training_oracle.py``.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import require_in_range

__all__ = ["discounted_returns_batch", "generalized_advantages_batch"]


def _as_batch(name: str, array) -> np.ndarray:
    array = np.asarray(array, dtype=np.float64)
    if array.ndim != 2:
        raise ValueError(f"{name} must be 2-D (E, K), got shape {array.shape}")
    return array


def _as_bootstraps(bootstrap_values, num_envs: int) -> np.ndarray:
    if bootstrap_values is None:
        return np.zeros(num_envs, dtype=np.float64)
    bootstraps = np.asarray(bootstrap_values, dtype=np.float64)
    if bootstraps.shape != (num_envs,):
        raise ValueError(
            f"bootstrap_values must have shape ({num_envs},), got {bootstraps.shape}"
        )
    return bootstraps


def discounted_returns_batch(
    rewards: np.ndarray, gamma: float, *, bootstrap_values=None
) -> np.ndarray:
    """Discounted return-to-go for ``E`` trajectories at once.

    ``G_k = Σ_{l=k}^{K-1} γ^{l-k} r_l + γ^{K-k} V(S_K)`` (Eq. 16's target)
    per row, with ``bootstrap_values`` standing in for ``V(S_K)``.
    ``rewards`` has shape ``(E, K)``; ``bootstrap_values`` (default
    zeros) has shape ``(E,)``. The backward recursion runs once per
    *step* over a length-``E`` column, with the same per-element
    arithmetic as the one-trajectory recursion.
    """
    require_in_range("gamma", gamma, 0.0, 1.0)
    rewards = _as_batch("rewards", rewards)
    returns = np.empty_like(rewards)
    running = _as_bootstraps(bootstrap_values, rewards.shape[0])
    # Columns last to first: r_k + γ·G_{k+1}, written straight into column
    # k (the sum commutes, so the bits are the one-trajectory recursion's).
    for column, reward in zip(returns.T[::-1], rewards.T[::-1]):
        np.multiply(running, gamma, out=column)
        column += reward
        running = column
    return returns


def generalized_advantages_batch(
    rewards: np.ndarray,
    values: np.ndarray,
    gamma: float,
    lam: float,
    *,
    bootstrap_values=None,
) -> np.ndarray:
    """GAE(λ) (Schulman et al., 2015) for ``E`` trajectories at once.

    ``A_k = Σ_{l≥k} (γλ)^{l-k} δ_l`` with TD residuals
    ``δ_l = r_l + γ V(S_{l+1}) − V(S_l)``; ``λ = 1`` recovers Eq. (18).
    Inputs have shape ``(E, K)`` (plus ``(E,)`` bootstraps). The only loop
    left is the inherently sequential backward recursion over the ``K``
    time steps; everything across the env axis is a single vector
    operation per step.
    """
    require_in_range("gamma", gamma, 0.0, 1.0)
    require_in_range("lam", lam, 0.0, 1.0)
    rewards = _as_batch("rewards", rewards)
    values = _as_batch("values", values)
    if rewards.shape != values.shape:
        raise ValueError(
            f"rewards and values must align, got {rewards.shape} vs {values.shape}"
        )
    bootstraps = _as_bootstraps(bootstrap_values, rewards.shape[0])
    next_values = np.concatenate([values[:, 1:], bootstraps[:, np.newaxis]], axis=1)
    deltas = rewards + gamma * next_values - values
    advantages = np.empty_like(deltas)
    decay = gamma * lam
    running = np.zeros(rewards.shape[0], dtype=np.float64)
    for column, delta in zip(advantages.T[::-1], deltas.T[::-1]):
        np.multiply(running, decay, out=column)
        column += delta
        running = column
    return advantages
