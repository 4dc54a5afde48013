"""The MSP's actor-critic network and action scaling.

Per the paper (Sec. IV-A5), the policy ``π_θ`` and value function ``V_πθ``
share the same network parameters: a common trunk (two 64-unit tanh
layers) with a Gaussian actor head and a scalar critic head on top.

:class:`ActorCritic` owns those parameters as one flat float64 buffer and
runs its forward pass as plain numpy over named views into it; the PPO
gradient that trains it is :mod:`repro.drl.fused`.

Actions: the network emits an unbounded "raw" action; the price is an
affine map of the raw action clipped to the feasible ``[C, p_max]``
(raw 0 → the mid price, raw ±1 → the interval edges). PPO's probability
ratios are computed on the raw action, which keeps the log-probabilities
exact and the squashing outside the likelihood.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import ConfigurationError, NeuralNetworkError
from repro.utils.rng import SeedLike, as_generator, spawn_children
from repro.utils.validation import require_finite

__all__ = ["ActionScaler", "ActorCritic", "orthogonal"]

LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True)
class ActionScaler:
    """Affine map between raw policy actions and feasible prices.

    ``price = clip(mid + half_range · raw, low, high)`` where
    ``mid = (low + high)/2`` and ``half_range = (high − low)/2``, so the
    raw interval ``[−1, 1]`` spans the whole feasible price range.
    """

    low: float
    high: float

    def __post_init__(self) -> None:
        # Checkpoint metadata feeds these bounds in, so reject NaN and inf
        # explicitly: an infinite bound makes every price NaN.
        require_finite("low", self.low)
        require_finite("high", self.high)
        if not self.low < self.high:
            raise ConfigurationError(
                f"need low < high, got [{self.low}, {self.high}]"
            )

    # Cached: the bounds are frozen, and to_price runs once per round.
    @cached_property
    def mid(self) -> float:
        """Centre of the price interval."""
        return 0.5 * (self.low + self.high)

    @cached_property
    def half_range(self) -> float:
        """Half-width of the price interval."""
        return 0.5 * (self.high - self.low)

    def to_price(self, raw: np.ndarray | float) -> np.ndarray | float:
        """Map a raw action to a feasible price."""
        # The method form of np.clip (the same clip), minus its dispatch.
        price = self.mid + self.half_range * np.asarray(raw)
        return price.clip(self.low, self.high)


def orthogonal(
    fan_in: int, fan_out: int, *, gain: float = 1.0, seed: SeedLike = None
) -> np.ndarray:
    """An orthogonal ``(fan_in, fan_out)`` weight matrix scaled by ``gain``.

    Rows/columns are orthonormal (whichever dimension is smaller), obtained
    from the QR decomposition of a Gaussian matrix with sign correction so
    the distribution is uniform over the orthogonal group. Orthogonal
    initialisation with per-layer gains is the standard PPO recipe (hidden
    gain sqrt(2), policy head 0.01, value head 1.0).
    """
    if fan_in < 1 or fan_out < 1:
        raise ValueError(f"fan_in/fan_out must be >= 1, got {fan_in}, {fan_out}")
    rng = as_generator(seed)
    rows, cols = max(fan_in, fan_out), min(fan_in, fan_out)
    gaussian = rng.normal(size=(rows, cols))
    q, r = np.linalg.qr(gaussian)
    q *= np.sign(np.diag(r))  # make the factorisation unique/uniform
    if fan_in < fan_out:
        q = q.T
    return np.ascontiguousarray(gain * q[:fan_in, :fan_out])


class ActorCritic:
    """Shared-trunk actor-critic for a 1-D continuous pricing action.

    The parameters live in one contiguous float64 vector,
    :attr:`flat_parameters`, in the canonical order ``log_std``, then
    ``trunk.layer{0,2,…}.weight``/``.bias`` per hidden layer, then
    ``actor_head.weight``/``.bias`` and ``critic_head.weight``/``.bias``
    (the ``state_dict`` keys checkpoints store). Every parameter is a
    C-ordered view into that vector; the views never re-bind, so writing
    through one (or :meth:`load_state_dict`) is seen by the next forward
    pass and the next optimiser step alike.

    Segment starts are padded to 64-byte boundaries so every view keeps
    the alignment class of a standalone numpy allocation: BLAS kernels
    (notably the batch-1 matvec) pick summation orders by operand layout
    and alignment, and the bitwise pins against the graph oracle rely on
    both matching. Padding cells are always zero.

    Args:
        obs_dim: observation width (L·(1+N) for the migration POMDP).
        hidden_sizes: trunk widths (paper: (64, 64)).
        action_dim: action width (1 for the unit price).
        initial_log_std: starting exploration scale of the Gaussian head.
        seed: initialisation seed.
    """

    _ALIGN = 8  # float64 elements per 64 bytes

    def __init__(
        self,
        obs_dim: int,
        hidden_sizes: tuple[int, ...] = (64, 64),
        *,
        action_dim: int = 1,
        initial_log_std: float = -0.5,
        seed: SeedLike = None,
    ) -> None:
        if obs_dim < 1 or action_dim < 1:
            raise ConfigurationError(
                f"obs_dim and action_dim must be >= 1, got {obs_dim}, {action_dim}"
            )
        if not hidden_sizes:
            raise ConfigurationError("need at least one hidden layer")
        if min(hidden_sizes) < 1:
            raise ConfigurationError(
                f"hidden sizes must be >= 1, got {tuple(hidden_sizes)}"
            )
        self.obs_dim = int(obs_dim)
        self.action_dim = int(action_dim)
        self.hidden_sizes = tuple(int(size) for size in hidden_sizes)
        widths = [self.obs_dim, *self.hidden_sizes]
        shapes = {"log_std": (self.action_dim,)}
        for index, (fan_in, fan_out) in enumerate(zip(widths[:-1], widths[1:])):
            shapes[f"trunk.layer{2 * index}.weight"] = (fan_in, fan_out)
            shapes[f"trunk.layer{2 * index}.bias"] = (fan_out,)
        shapes["actor_head.weight"] = (widths[-1], self.action_dim)
        shapes["actor_head.bias"] = (self.action_dim,)
        shapes["critic_head.weight"] = (widths[-1], 1)
        shapes["critic_head.bias"] = (1,)

        # (start, size, shape) of each parameter in flat_parameters.
        self.segments: list[tuple[int, int, tuple[int, ...]]] = []
        cursor = 0
        for shape in shapes.values():
            size = math.prod(shape)
            self.segments.append((cursor, size, shape))
            cursor += -(-size // self._ALIGN) * self._ALIGN
        self.flat_parameters = np.zeros(cursor, dtype=np.float64)
        self._params = dict(zip(shapes, self.views_of(self.flat_parameters)))

        views = list(self._params.values())
        self.log_std = views[0]
        self.trunk = [
            (views[1 + 2 * i], views[2 + 2 * i]) for i in range(len(hidden_sizes))
        ]
        self.actor_head = (views[-4], views[-3])
        self.critic_head = (views[-2], views[-1])

        # Initial weights: one child seed per trunk layer and per head,
        # orthogonal weights, zero biases, constant log-std.
        seeds = spawn_children(seed, 2 * len(hidden_sizes) + 2)
        for index, (weight, _) in enumerate(self.trunk):
            weight[...] = orthogonal(
                *weight.shape, gain=float(np.sqrt(2.0)), seed=seeds[index]
            )
        self.actor_head[0][...] = orthogonal(
            *self.actor_head[0].shape, gain=0.01, seed=seeds[-2]
        )
        self.critic_head[0][...] = orthogonal(
            *self.critic_head[0].shape, gain=1.0, seed=seeds[-1]
        )
        self.log_std[...] = float(initial_log_std)

    # ------------------------------------------------------------------ #
    # parameters
    # ------------------------------------------------------------------ #
    def views_of(self, buffer: np.ndarray) -> list[np.ndarray]:
        """Per-parameter views into ``buffer`` (a vector shaped like
        :attr:`flat_parameters`), in canonical order."""
        return [
            buffer[start : start + size].reshape(shape)
            for start, size, shape in self.segments
        ]

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of every parameter, keyed by dotted name."""
        return {name: view.copy() for name, view in self._params.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Copy ``state`` into the parameter buffer in place.

        Keys and shapes must match exactly and every value must be finite;
        otherwise :class:`NeuralNetworkError` is raised and nothing is
        written.
        """
        missing = set(self._params) - set(state)
        unexpected = set(state) - set(self._params)
        if missing or unexpected:
            raise NeuralNetworkError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        values = {}
        for name, view in self._params.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != view.shape:
                raise NeuralNetworkError(
                    f"shape mismatch for {name!r}: {value.shape} vs {view.shape}"
                )
            if not np.isfinite(value).all():
                raise NeuralNetworkError(f"non-finite values in {name!r}")
            values[name] = value
        for name, value in values.items():
            self._params[name][...] = value

    # ------------------------------------------------------------------ #
    # forward pass
    # ------------------------------------------------------------------ #
    def _check_observations(self, obs: np.ndarray) -> None:
        if obs.ndim != 2 or obs.shape[1] != self.obs_dim:
            raise ConfigurationError(
                f"expected observations of shape (batch, {self.obs_dim}), "
                f"got {obs.shape}"
            )

    def forward(self, observations: np.ndarray):
        """Trunk and heads for a ``(batch, obs_dim)`` observation block.

        Returns ``(inputs, outs, mean, values)``: ``inputs[i]``/``outs[i]``
        are the i-th trunk layer's input and its tanh output (kept for the
        PPO backward pass), ``mean`` the ``(batch, action_dim)`` Gaussian
        means and ``values`` the ``(batch,)`` critic estimates.
        """
        obs = np.asarray(observations, dtype=np.float64)
        self._check_observations(obs)
        inputs, outs = [], []
        x = obs
        for weight, bias in self.trunk:
            inputs.append(x)
            x = x @ weight + bias
            np.tanh(x, out=x)
            outs.append(x)
        mean = x @ self.actor_head[0] + self.actor_head[1]
        critic = x @ self.critic_head[0] + self.critic_head[1]
        return inputs, outs, mean, critic[:, 0]

    def log_prob_terms(self, actions: np.ndarray, mean: np.ndarray):
        """Diagonal-Gaussian log-density of ``actions`` around ``mean``.

        Returns ``(inv_std, standardized, log_probs)``; the first two are
        the intermediates the PPO backward pass reuses.
        """
        log_std = self.log_std
        inv_std = np.exp(-log_std)
        standardized = (actions - mean) * inv_std
        per_dim = standardized * standardized
        per_dim *= -0.5
        per_dim -= log_std
        per_dim -= LOG_SQRT_2PI
        # A one-element sum is its element unless that is -0.0, and a
        # difference with the nonzero LOG_SQRT_2PI never is: with one
        # action dim the sum over dims is the column itself.
        if per_dim.shape[-1] == 1:
            return inv_std, standardized, per_dim[..., 0]
        return inv_std, standardized, np.add.reduce(per_dim, axis=-1)

    def act(
        self,
        observation: np.ndarray,
        *,
        seed: SeedLike = None,
        deterministic: bool = False,
    ) -> tuple[np.ndarray, float, float]:
        """Sample an action for one observation.

        Returns ``(raw_action, log_prob, value)``.
        """
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
        """Sample actions for a whole observation batch in one forward pass.

        This is the vector-env hot path: one trunk evaluation serves all
        ``E`` envs, and the Gaussian head draws the ``(E, action_dim)``
        noise block from ``seed`` in a single call — for ``E = 1`` the
        stream consumption (and hence every downstream number) is identical
        to :meth:`act`.

        Returns ``(raw_actions (E, action_dim), log_probs (E,), values (E,))``.
        """
        rng = as_generator(seed)
        _, _, mean, values = self.forward(observations)
        if deterministic:
            raws = mean.copy()
        else:
            # exp once per action dim, not per (batch, dim) copy — the
            # broadcast multiply pairs the identical operands elementwise,
            # so the sampled prices carry the exact same bits.
            raws = rng.normal(size=mean.shape)
            raws *= np.exp(self.log_std)
            np.add(mean, raws, out=raws)
        _, _, log_probs = self.log_prob_terms(raws, mean)
        return raws, log_probs, values

    def value_batch(self, observations: np.ndarray) -> np.ndarray:
        """Critic estimates ``V_πθ(o)`` for an observation batch, ``(E,)``."""
        return self.forward(observations)[3]
