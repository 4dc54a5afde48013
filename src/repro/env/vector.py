"""The VT-migration pricing POMDP (paper Sec. IV-A), ``E`` games as arrays.

State (Sec. IV-A1): ``S_k = {p_k, b_k}`` — the current price and demand
vector. Observation (Eq. 11): the last ``L`` rounds of (price, demands),
``o_k = {p_{k-L}, b_{k-L}, ..., p_{k-1}, b_{k-1}}``, randomly initialised
while ``k < L``. Action: the price ``p_k ∈ [C, p_max]``. Reward (Eq. 12):
binary — 1 iff the MSP's round utility reaches a new episode best.

Observations are normalised (prices by ``p_max``, demands by natural
capacity, see :func:`history_entries`) so the 64-unit tanh trunk sees O(1)
inputs; the ``infos`` dict carries the raw round quantities.

``reward_mode``:
- ``"paper"`` — Eq. (12) exactly;
- ``"utility"`` — the MSP's round utility scaled to O(1); a shaped
  alternative used by the ablation experiment.

:class:`VectorMigrationEnv` plays ``E`` independent games (different seeds
and/or different markets; a one-env batch is the paper's scalar POMDP).
Its state is arrays: an ``(E, L·(1+N))`` observation window, ``(E,)``
episode bests, clamp bounds and utility scales, and one round counter.
The markets are one ``E``-row :class:`MarketStack` (a shared market is
repeated ``E`` times), and there is one step path for every ``E`` and
every fleet: ``reset`` solves the ``(E, L)`` priming grid and ``step`` the
``(E,)`` price vector, each in one pass of the stack's trusted kernel.
Each env keeps its own generator, and every array op is the elementwise
twin of the scalar env kept as a test oracle in ``tests/training_oracle.py``,
so a run reproduces ``E`` sequential single-env traces bit for bit.

Member markets may differ in costs, price caps, capacities, links and
population parameters, but share the population size ``N`` (one
observation layout). Each env clamps its action to its own ``[C, p_max]``;
:attr:`action_low` / :attr:`action_high` report the fleet envelope.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

import numpy as np

from repro.core.marketstack import MarketStack
from repro.core.stackelberg import StackelbergMarket
from repro.errors import ConfigurationError, EnvironmentError_
from repro.utils.rng import SeedLike, as_generator, spawn_children

__all__ = ["VectorMigrationEnv", "history_entries"]

_REWARD_MODES = ("paper", "utility")


def history_entries(
    prices, allocations, max_prices, capacities, out: np.ndarray | None = None
) -> np.ndarray:
    """Observation entries ``(p / p_max, b / B_max)``, shape ``(..., 1 + N)``.

    ``prices`` has shape ``(...)`` and ``allocations`` ``(..., N)``;
    ``max_prices`` and ``capacities`` broadcast against ``prices``. The one
    layout of an Eq. (11) history entry, shared by the env and
    :class:`repro.baselines.policies.LearnedPricing`. The entries are
    written into ``out`` when given (the env's step writes them straight
    into the next observation window), else into a new array.
    """
    allocations = np.asarray(allocations)
    if out is None:
        out = np.empty((*allocations.shape[:-1], 1 + allocations.shape[-1]))
    np.divide(prices, max_prices, out=out[..., 0])
    np.divide(allocations, np.asarray(capacities)[..., np.newaxis], out=out[..., 1:])
    return out


def _env_seeds(
    num_envs: int, seeds: Sequence[SeedLike] | None, seed: SeedLike
) -> list[SeedLike]:
    if seeds is not None:
        if len(seeds) != num_envs:
            raise EnvironmentError_(f"got {len(seeds)} seeds for {num_envs} envs")
        return list(seeds)
    if seed is None:
        return [None] * num_envs
    if isinstance(seed, (int, np.integer)):
        children = np.random.SeedSequence(int(seed)).spawn(num_envs - 1)
        return [int(seed), *children]
    return spawn_children(seed, num_envs)


class VectorMigrationEnv:
    """``E`` pricing POMDPs over one ``E``-row market stack, stepped as arrays."""

    def __init__(
        self,
        markets: Sequence[StackelbergMarket],
        *,
        seeds: Sequence[SeedLike] | None = None,
        seed: SeedLike = None,
        history_length: int = 4,
        rounds_per_episode: int = 100,
        reward_mode: str = "paper",
        reward_tolerance: float = 1e-3,
    ) -> None:
        num_envs = len(markets)
        if num_envs < 1:
            raise EnvironmentError_(f"need at least one market, got {num_envs}")
        if history_length < 1:
            raise EnvironmentError_(
                f"history_length must be >= 1, got {history_length}"
            )
        if rounds_per_episode < 1:
            raise EnvironmentError_(
                f"rounds_per_episode must be >= 1, got {rounds_per_episode}"
            )
        if reward_mode not in _REWARD_MODES:
            raise EnvironmentError_(
                f"reward_mode must be one of {_REWARD_MODES}, got {reward_mode!r}"
            )
        if not reward_tolerance >= 0.0:
            raise EnvironmentError_(
                f"reward_tolerance must be >= 0, got {reward_tolerance}"
            )
        self._rngs = [as_generator(s) for s in _env_seeds(num_envs, seeds, seed)]
        self._stack = MarketStack(markets)
        num_vmus = self._stack.counts
        if (num_vmus != num_vmus[0]).any():
            raise EnvironmentError_(
                "all markets must share one population size (one observation "
                f"layout); got {sorted(set(num_vmus.tolist()))}"
            )
        self.history_length = history_length
        self.rounds_per_episode = rounds_per_episode
        self.reward_mode = reward_mode
        self.reward_tolerance = float(reward_tolerance)
        self._entry_width = 1 + int(num_vmus[0])
        self._lows = self._stack.unit_costs
        self._highs = self._stack.max_prices
        self._caps = self._stack.capacities_natural
        # O(1) scale for the shaped reward: profit of selling the full
        # capacity at the maximum margin.
        self._scales = (self._highs - self._lows) * self._caps
        # Eq. (12)'s equality tolerance, in utility units.
        self._slacks = self.reward_tolerance * self._scales
        self._observations: np.ndarray | None = None
        self._best = np.full(num_envs, -np.inf)
        self._round = 0

    @classmethod
    def from_market(
        cls, market: StackelbergMarket, num_envs: int, **kwargs: Any
    ) -> "VectorMigrationEnv":
        """``num_envs`` envs over one shared market (repeated ``num_envs``
        times in the stack); same RNG-stream contract as :meth:`from_markets`."""
        return cls([market] * num_envs, **kwargs)

    @classmethod
    def from_markets(
        cls, markets: Sequence[StackelbergMarket], **kwargs: Any
    ) -> "VectorMigrationEnv":
        """One env per market — a (possibly heterogeneous) fleet.

        RNG-stream contract: with explicit ``seeds`` each env gets its own
        entry. Otherwise an integer ``seed`` gives env 0 the seed itself —
        so env 0 matches a single-env run on that seed, which keeps
        ``num_envs = 1`` runs bit-compatible with the paper's scalar loop —
        while envs ``e >= 1`` draw independent ``SeedSequence`` children of
        the root seed. (Children, not ``seed + e``: offset seeds would make
        adjacent root seeds share most of their env streams, correlating
        the "independent" samples a multi-seed comparison feeds its
        significance test.) A generator ``seed`` spawns independent child
        streams; ``None`` leaves every env nondeterministic.
        """
        return cls(markets, **kwargs)

    # ------------------------------------------------------------------ #
    @property
    def num_envs(self) -> int:
        """Batch size ``E``."""
        return len(self._rngs)

    @property
    def observation_dim(self) -> int:
        """L · (1 + N): price plus one demand entry per VMU, per round."""
        return self.history_length * self._entry_width

    @property
    def action_low(self) -> float:
        """Lower price bound: the fleet envelope ``min_e C_e``."""
        return float(self._lows.min())

    @property
    def action_high(self) -> float:
        """Upper price bound: the fleet envelope ``max_e p_max,e``."""
        return float(self._highs.max())

    # ------------------------------------------------------------------ #
    def reset(self) -> np.ndarray:
        """Start a new episode in every env; returns ``(E, obs_dim)``.

        Each env draws its ``L`` random priming prices (the paper:
        ``p_{k-L}, b_{k-L}`` generated randomly while ``k < L``) from its own
        stream in one ``uniform(size=L)`` draw, and the fleet's ``(E, L)``
        priming grid is solved in one stacked pass.
        """
        prices = np.stack(
            [
                rng.uniform(low, high, size=self.history_length)
                for rng, low, high in zip(self._rngs, self._lows, self._highs)
            ]
        )
        outcome = self._stack._outcomes_trusted(prices)
        entries = history_entries(
            prices,
            outcome.allocations,
            self._highs[:, np.newaxis],
            self._caps[:, np.newaxis],
        )
        self._observations = entries.reshape(self.num_envs, -1)
        self._best = np.full(self.num_envs, -np.inf)
        self._round = 0
        return self._observations

    def step(
        self, actions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, dict[str, np.ndarray]]:
        """Play one pricing round in every env.

        Args:
            actions: raw prices, shape ``(E,)`` (scalars are broadcast).
                Each is clamped to its env's ``[C, p_max]`` (the feasible
                action space, Sec. IV-A2).

        Returns:
            ``(observations (E, obs_dim), rewards (E,), dones (E,), infos)``
            where ``infos`` maps each round quantity to an array: ``price``,
            ``raw_action``, ``msp_utility``, ``best_utility``,
            ``capacity_binding`` and ``round`` of shape ``(E,)``, and
            ``demands``, ``allocations`` and ``vmu_utilities`` of shape
            ``(E, N)``.

        Raises:
            EnvironmentError_: before :meth:`reset`, or past the episode end.
            ConfigurationError: if any action is not finite.
        """
        if self._observations is None:
            raise EnvironmentError_("call reset() before step()")
        if self._round >= self.rounds_per_episode:
            raise EnvironmentError_(
                "episode already finished; call reset() to start a new one"
            )
        acts = np.array(actions, dtype=float)
        if acts.shape != (self.num_envs,):
            acts = np.broadcast_to(acts, (self.num_envs,))
        if np.count_nonzero(np.isfinite(acts)) != acts.size:
            raise ConfigurationError(f"actions must be finite, got {acts!r}")
        # np.clip's bits: the actions are finite and every bound is > 0,
        # so no signed-zero tie can tell the two apart.
        prices = np.minimum(np.maximum(acts, self._lows), self._highs)
        outcome = self._stack._outcomes_trusted(prices)
        utilities = outcome.msp_utilities
        if self.reward_mode == "paper":
            # Eq. (12) with an equality tolerance: utilities are continuous,
            # so exact ">= best" can never be re-attained under exploration
            # noise; the tolerance (relative to the utility scale) lets a
            # converged policy collect reward every round, which is what
            # makes the episode return converge to K as in Fig. 2(a).
            rewards = (utilities >= self._best - self._slacks).astype(np.float64)
        else:
            rewards = utilities / self._scales
        self._best = np.where(utilities >= self._best, utilities, self._best)
        # o_{k+1} is o_k shifted left one (price, demands) entry.
        width = self._entry_width
        observations = np.empty_like(self._observations)
        observations[:, :-width] = self._observations[:, width:]
        history_entries(
            prices,
            outcome.allocations,
            self._highs,
            self._caps,
            out=observations[:, -width:],
        )
        self._observations = observations
        self._round += 1
        round_index = np.full(self.num_envs, self._round)
        infos = {
            "price": prices,
            "raw_action": acts,
            "msp_utility": utilities,
            "best_utility": self._best,
            "demands": outcome.demands,
            "allocations": outcome.allocations,
            "vmu_utilities": outcome.vmu_utilities,
            "capacity_binding": outcome.capacity_binding,
            "round": round_index,
        }
        return (
            self._observations,
            rewards,
            round_index >= self.rounds_per_episode,
            infos,
        )

    def equilibria(self):
        """Every env's Stackelberg equilibrium, one stacked solve.

        One :meth:`MarketStack.equilibria_stacked` pass over the env's own
        stack (memoised, so repeated calls are free). Returns one
        :class:`repro.core.stackelberg.StackelbergEquilibrium` per env — the
        oracle reference the baselines replay.

        Raises:
            InfeasibleMarketError: if any member market admits no
                profitable trade.
        """
        solved = self._stack.equilibria_stacked()
        return [solved.equilibrium(e) for e in range(self.num_envs)]
