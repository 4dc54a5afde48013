"""Replay buffer for on-policy rollouts (Algorithm 1's ``BF``).

The paper stores transitions ``(o_k, p_k, R_k, o_{k+1})`` plus the data PPO
needs (log-prob and value at collection time), then samples random
mini-batches of size ``I`` for ``M`` epochs per update. Advantages and
value targets are computed when a rollout segment is pooled (end of
segment), after which mini-batch sampling is allowed.

:class:`VectorRolloutStorage` is the one buffer: the vector trainer writes
each lockstep round of ``E`` envs into it. :func:`sample_minibatches`
draws a whole update phase's ``M`` mini-batches from the pooled segment
with one gather per field. The per-transition buffer and the per-epoch
sampler they are pinned against live in ``tests/training_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.drl.gae import discounted_returns_batch, generalized_advantages_batch
from repro.errors import ConfigurationError
from repro.utils.rng import SeedLike, as_generator

__all__ = ["MiniBatch", "VectorRolloutStorage", "sample_minibatches"]


@dataclass(frozen=True)
class MiniBatch:
    """A sampled training batch (arrays stacked along axis 0)."""

    observations: np.ndarray
    actions: np.ndarray
    old_log_probs: np.ndarray
    advantages: np.ndarray
    returns: np.ndarray


class VectorRolloutStorage:
    """Preallocated ``(E, K, ·)`` rollout scratch for the vector trainer.

    Each round's batched arrays land in fixed columns of preallocated
    buffers, and advantages/returns for all envs come from one vectorised
    pass (:func:`generalized_advantages_batch`). The pooled minibatch is
    env-major: the C-order ``(E, K, ·) → (E·K, ·)`` reshape lists env 0's
    segment first, then env 1's, and so on. The test suite pins it bitwise
    against per-env transition buffers finalised with the scalar GAE
    recursion and concatenated in env order.

    Lifecycle: ``add_round`` × K → ``pooled(bootstrap_values)`` →
    ``clear``. The pooled batch may alias the internal buffers — consume
    it before the next ``add_round``/``clear`` (the trainer's update
    phase gathers copies out of it, so this holds by construction).
    """

    def __init__(
        self,
        num_envs: int,
        capacity: int,
        obs_dim: int,
        action_dim: int,
        *,
        gamma: float,
        lam: float = 1.0,
    ) -> None:
        if num_envs < 1 or capacity < 1 or obs_dim < 1 or action_dim < 1:
            raise ConfigurationError(
                "num_envs, capacity, obs_dim and action_dim must be >= 1, "
                f"got {num_envs}, {capacity}, {obs_dim}, {action_dim}"
            )
        if not 0.0 <= gamma <= 1.0 or not 0.0 <= lam <= 1.0:
            raise ConfigurationError(
                f"gamma and lam must be in [0, 1], got {gamma}, {lam}"
            )
        self._gamma = gamma
        self._lam = lam
        self._observations = np.empty((num_envs, capacity, obs_dim))
        self._actions = np.empty((num_envs, capacity, action_dim))
        self._rewards = np.empty((num_envs, capacity))
        self._log_probs = np.empty((num_envs, capacity))
        self._values = np.empty((num_envs, capacity))
        # Each round column of the five buffers, viewed once: add_round
        # writes through these instead of re-slicing every round.
        self._columns = [
            (
                self._observations[:, column],
                self._actions[:, column],
                self._rewards[:, column],
                self._log_probs[:, column],
                self._values[:, column],
            )
            for column in range(capacity)
        ]
        self._count = 0

    @property
    def num_envs(self) -> int:
        """Number of concurrent env slots."""
        return self._observations.shape[0]

    @property
    def capacity(self) -> int:
        """Maximum rounds per segment."""
        return self._observations.shape[1]

    def __len__(self) -> int:
        return self._count

    def clear(self) -> None:
        """Start a new segment (buffers are reused, not reallocated)."""
        self._count = 0

    def add_round(
        self,
        observations: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        log_probs: np.ndarray,
        values: np.ndarray,
    ) -> None:
        """Store one lockstep round of ``(E, ·)`` batched arrays."""
        if self._count >= len(self._columns):
            raise ConfigurationError(
                f"storage full: capacity {self.capacity} rounds; pooled()/clear() first"
            )
        columns = self._columns[self._count]
        columns[0][...] = observations
        columns[1][...] = actions
        columns[2][...] = rewards
        columns[3][...] = log_probs
        columns[4][...] = values
        self._count += 1

    def pooled(self, bootstrap_values: np.ndarray) -> MiniBatch:
        """The segment as one env-major pooled :class:`MiniBatch`."""
        if self._count == 0:
            raise ConfigurationError("cannot pool an empty storage")
        count = self._count
        num_envs = self.num_envs
        rewards = self._rewards[:, :count]
        values = self._values[:, :count]
        advantages = generalized_advantages_batch(
            rewards,
            values,
            self._gamma,
            self._lam,
            bootstrap_values=bootstrap_values,
        )
        returns = discounted_returns_batch(
            rewards, self._gamma, bootstrap_values=bootstrap_values
        )
        pooled_rows = num_envs * count
        return MiniBatch(
            observations=self._observations[:, :count, :].reshape(pooled_rows, -1),
            actions=self._actions[:, :count, :].reshape(pooled_rows, -1),
            old_log_probs=self._log_probs[:, :count].reshape(pooled_rows),
            advantages=advantages.reshape(pooled_rows),
            returns=returns.reshape(pooled_rows),
        )


def sample_minibatches(
    pool: MiniBatch, batch_size: int, count: int, seed: SeedLike = None
) -> list[MiniBatch]:
    """Draw one PPO phase's ``count`` random mini-batches from a pooled
    segment (Algorithm 1, lines 11–12).

    Each mini-batch is one ``choice`` call, uniform over the pool, with
    replacement only when the pool is smaller than ``batch_size``; the
    ``count`` calls are made up front, in epoch order, and are the
    trainer's whole RNG consumption at update time. The rows of every
    mini-batch are then gathered with one ``np.take`` per field for the
    whole phase, and mini-batch ``k`` is the ``k``-th ``batch_size``-row
    block of that gather: the same rows, in the same order, that ``count``
    separate per-epoch gathers would copy out.
    """
    if batch_size < 1 or count < 1:
        raise ConfigurationError(
            f"batch_size and count must be >= 1, got {batch_size}, {count}"
        )
    rng = as_generator(seed)
    population = len(pool.observations)
    replace = batch_size > population
    rows = np.empty((count, batch_size), dtype=np.intp)
    for epoch_rows in rows:
        epoch_rows[...] = rng.choice(population, size=batch_size, replace=replace)
    # np.take gathers the same rows as fancy indexing (identical values)
    # with less per-call overhead; each field comes back (count,
    # batch_size, ...), and iterating it yields the epochs' blocks.
    fields = [
        np.take(field, rows, axis=0)
        for field in (
            pool.observations,
            pool.actions,
            pool.old_log_probs,
            pool.advantages,
            pool.returns,
        )
    ]
    return [MiniBatch(*blocks) for blocks in zip(*fields)]
