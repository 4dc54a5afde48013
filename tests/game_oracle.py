"""Scalar game-solve references and numerical game-analysis checks.

Tests and benchmarks import this module as ``game_oracle``. None of it is
a production path; each piece is the loop-shaped reference a vectorised
production path is pinned or timed against:

- :func:`vmu_utility`, :func:`vmu_utilities`, :func:`msp_utility`,
  :func:`follower_best_response` and :func:`proportional_rationing` — the
  game's formulas (Eqs. 2, 4 and 8 and the ``B_max`` rule) in their
  validating scalar and price-batch forms, independent of the stacked
  ``_*_rows`` kernels the library runs; :func:`scalar_round` chains them
  into one trading round;
- :func:`scalar_landscape` — one scalar Stackelberg solve per price, the
  baseline of :meth:`StackelbergMarket.outcomes_batch`;
- :func:`run_rounds` — the classic round-by-round repeated-game loop,
  the reference :func:`repro.sim.play_policies_stacked` is pinned against;
- :func:`segment_candidates` — Theorem 2's per-segment candidate
  enumeration, the scalar form of ``MarketStack._candidate_rows``;
- :func:`refined_equilibria` — the candidate argmax cross-checked by a
  grid-then-golden search, the solve ``MarketStack.equilibria_stacked``
  ran before its argmax alone became the equilibrium; the differential
  oracle the argmax is held to;
- :func:`scalar_best_response_price` and
  :func:`scalar_oligopoly_equilibrium` — one ``msp_utility()`` call per
  lattice point, the reference (and the speedup baseline) of
  ``MultiMspMarket``'s lattice-batched best response;
- :func:`numerical_derivative`, :func:`numerical_second_derivative`,
  :func:`is_concave_on`, :func:`verify_best_response` and
  :func:`verify_no_profitable_deviation` — Theorems 1 and 2 checked
  numerically on an instantiated market.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable, Sequence

import numpy as np

from repro.core.marketstack import MarketStack
from repro.core.mechanism import GameHistory, PricingPolicy, RoundRecord
from repro.core.multimsp import (
    _IMPROVEMENT_MARGIN,
    MultiMspMarket,
    OligopolyEquilibrium,
)
from repro.core.stackelberg import (
    MarketOutcome,
    PriceBatchOutcome,
    StackelbergMarket,
)
from repro.errors import GameError
from repro.game.solvers import grid_then_golden_batch
from repro.utils.validation import require_non_negative, require_positive


def vmu_utility(
    immersion_coef: float,
    data_units: float,
    bandwidth: float,
    price: float,
    spectral_efficiency: float,
) -> float:
    """Utility of one VMU at purchase ``bandwidth`` under ``price`` (Eq. 2)."""
    require_positive("immersion_coef", immersion_coef)
    require_positive("data_units", data_units)
    require_non_negative("bandwidth", bandwidth)
    require_non_negative("price", price)
    require_positive("spectral_efficiency", spectral_efficiency)
    gain = immersion_coef * np.log1p(bandwidth * spectral_efficiency / data_units)
    return float(gain - price * bandwidth)


def vmu_utilities(
    immersion_coefs: np.ndarray,
    data_units: np.ndarray,
    bandwidths: np.ndarray,
    price: float | np.ndarray,
    spectral_efficiency: float,
) -> np.ndarray:
    """Vectorised Eq. (2) over a population, optionally batched over prices.

    With a scalar ``price`` and ``bandwidths`` of shape ``(N,)`` this is the
    per-population form. With ``price`` of shape ``(P,)`` and
    ``bandwidths`` of shape ``(P, N)`` it returns per-price utilities
    ``(P, N)`` in one pass.
    """
    alphas = np.asarray(immersion_coefs, dtype=float)
    data = np.asarray(data_units, dtype=float)
    bands = np.asarray(bandwidths, dtype=float)
    prices = np.asarray(price, dtype=float)
    if prices.ndim == 1:
        if bands.ndim != 2 or bands.shape[0] != prices.shape[0]:
            raise ValueError(
                f"price batch of shape {prices.shape} needs bandwidths of "
                f"shape (P, N), got {bands.shape}"
            )
        prices = prices[:, np.newaxis]
    gains = alphas * np.log1p(bands * spectral_efficiency / data)
    return gains - prices * bands


def msp_utility(
    price: float | np.ndarray, unit_cost: float, bandwidths: np.ndarray
) -> float | np.ndarray:
    """Leader utility ``Σ (p − C)·b_n`` (Eq. 4).

    Scalar ``price`` + ``(N,)`` bandwidths returns a float; a price batch
    ``(P,)`` + ``(P, N)`` bandwidths returns the per-price utilities ``(P,)``.
    """
    require_positive("unit_cost", unit_cost)
    bands = np.asarray(bandwidths, dtype=float)
    if np.any(bands < 0.0):
        raise ValueError("bandwidths must be >= 0")
    prices = np.asarray(price, dtype=float)
    if prices.ndim == 0:
        require_non_negative("price", float(prices))
        return float((float(prices) - unit_cost) * bands.sum())
    if np.any(~np.isfinite(prices)) or np.any(prices < 0.0):
        raise ValueError(f"prices must be finite and >= 0, got {prices!r}")
    if bands.ndim != 2 or bands.shape[0] != prices.shape[0]:
        raise ValueError(
            f"price batch of shape {prices.shape} needs bandwidths of shape "
            f"(P, N), got {bands.shape}"
        )
    return (prices - unit_cost) * bands.sum(axis=-1)


def follower_best_response(
    immersion_coefs: np.ndarray,
    data_units: np.ndarray,
    price: float | np.ndarray,
    spectral_efficiency: float,
) -> np.ndarray:
    """Vectorised best response of Eq. (8), truncated at zero.

    ``b*_n = max(0, α_n/p − D_n/SE)``. The truncation implements the
    feasibility constraint ``b_n > 0`` of Problem 1: a VMU facing a price
    above its drop-out threshold ``α_n·SE/D_n`` buys nothing.

    ``price`` may be a scalar (returns ``(N,)``) or a vector of shape
    ``(P,)`` (returns the best-response matrix ``(P, N)``, one row per
    posted price).
    """
    require_positive("spectral_efficiency", spectral_efficiency)
    alphas = np.asarray(immersion_coefs, dtype=float)
    data = np.asarray(data_units, dtype=float)
    if np.any(alphas <= 0.0) or np.any(data <= 0.0):
        raise ValueError("immersion coefficients and data sizes must be > 0")
    prices = np.asarray(price, dtype=float)
    if prices.ndim == 0:
        require_positive("price", float(prices))
        return np.maximum(0.0, alphas / float(prices) - data / spectral_efficiency)
    if np.any(~np.isfinite(prices)) or np.any(prices <= 0.0):
        raise ValueError(f"prices must be finite and > 0, got {prices!r}")
    return np.maximum(
        0.0,
        alphas[np.newaxis, :] / prices[:, np.newaxis]
        - data[np.newaxis, :] / spectral_efficiency,
    )


def proportional_rationing(
    demands: list[float] | np.ndarray, capacity: float
) -> list[float] | np.ndarray:
    """Scale ``demands`` down proportionally so their sum fits ``capacity``.

    Every VMU receives the same fraction of its request; demands within
    capacity are returned unchanged. Accepts a plain list (returns a
    list), a 1-D array of per-VMU demands (returns an array), or a batched
    array of shape ``(P, N)`` — one demand row per posted price — where
    each row is rationed independently against the same ``capacity``.
    """
    require_positive("capacity", capacity)
    array_in = isinstance(demands, np.ndarray)
    rows = np.asarray(demands, dtype=float)
    if rows.ndim not in (1, 2):
        raise ValueError(
            f"demands must be 1-D (N,) or batched (P, N), got shape {rows.shape}"
        )
    if not np.all(np.isfinite(rows)):
        raise ValueError(f"demands must be finite, got {demands!r}")
    if np.any(rows < 0.0):
        raise ValueError(f"demands must be >= 0, got {demands!r}")
    totals = rows.sum(axis=-1)
    # np.where evaluates both branches, so guard the division against the
    # rows it will discard (zero or subnormal totals divide to inf/nan).
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scales = np.where(totals > capacity, capacity / totals, 1.0)
    granted = rows * (scales if rows.ndim == 1 else scales[:, np.newaxis])
    if array_in:
        return granted
    return [float(g) for g in granted]


def scalar_round(market: StackelbergMarket, price: float) -> MarketOutcome:
    """One trading round at ``price`` through the functions above.

    Eq. (8) demands, ``B_max`` rationing when the market enforces it,
    Eq. (4) and Eq. (2) at the granted bandwidth: the independent chain the
    stacked production path (``MarketStack.outcomes_stacked``) is pinned
    against bit for bit.
    """
    config = market.config
    alphas, data = market.immersion_coefs, market.data_units
    se = market.spectral_efficiency
    demands = follower_best_response(alphas, data, price, se)
    allocations = demands
    if config.enforce_capacity:
        allocations = proportional_rationing(demands, config.capacity_natural)
    return MarketOutcome(
        price=float(price),
        demands=demands,
        allocations=allocations,
        msp_utility=msp_utility(price, config.unit_cost, allocations),
        vmu_utilities=vmu_utilities(alphas, data, allocations, price, se),
        capacity_binding=bool(
            config.enforce_capacity
            and demands.sum() >= config.capacity_natural * (1.0 - 1e-9)
        ),
    )


def scalar_landscape(
    market: StackelbergMarket, prices: np.ndarray
) -> PriceBatchOutcome:
    """One scalar Stackelberg solve per price, stacked into a batch.

    Kept deliberately loop-shaped: its point is to be the independent
    baseline the batched path is validated and benchmarked against.
    """
    return PriceBatchOutcome.from_outcomes(
        [market.round_outcome(float(p)) for p in np.asarray(prices, dtype=float)]
    )


def run_rounds(
    market: StackelbergMarket,
    policy: PricingPolicy,
    num_rounds: int,
    *,
    history: GameHistory | None = None,
) -> tuple[GameHistory, list[MarketOutcome]]:
    """Play ``num_rounds`` of the repeated pricing game, one round at a time.

    Each round: the policy proposes a price from public history (clamped to
    the feasible ``[C, p_max]``), followers best-respond, and the outcome is
    appended to the history. Returns the final history and per-round
    outcomes. Record indices continue from the supplied history, so a
    multi-segment history numbers its rounds uniquely.
    """
    if num_rounds < 1:
        raise ValueError(f"num_rounds must be >= 1, got {num_rounds}")
    history = history if history is not None else GameHistory()
    outcomes: list[MarketOutcome] = []
    config = market.config
    for round_index in range(len(history), len(history) + num_rounds):
        raw_price = float(policy.propose_price(history))
        price = float(np.clip(raw_price, config.unit_cost, config.max_price))
        outcome = market.round_outcome(price)
        outcomes.append(outcome)
        history.append(
            RoundRecord(
                round_index=round_index,
                price=price,
                demands=tuple(float(b) for b in outcome.allocations),
                msp_utility=outcome.msp_utility,
            )
        )
    return history, outcomes


def segment_candidates(market: StackelbergMarket) -> list[float]:
    """Closed-form candidate prices per active-set segment.

    On a segment where the active set A is constant, the unconstrained
    optimum is ``p_A = sqrt(C·SE·Σ_A α / Σ_A D)`` (Theorem 2) and the
    capacity-saturating price is ``p_cap = Σ_A α / (B + Σ_A D/SE)`` with B
    the natural capacity. The equilibrium price is one of these (clamped to
    the segment) or a segment boundary.
    """
    config = market.config
    se = market.spectral_efficiency
    alphas, data_units = market.immersion_coefs, market.data_units
    thresholds = market.dropout_thresholds()
    boundaries = sorted(
        {config.unit_cost, config.max_price}
        | {
            float(t)
            for t in np.unique(thresholds)
            if config.unit_cost < t < config.max_price
        }
    )
    candidates: set[float] = set(boundaries)
    for low, high in zip(boundaries[:-1], boundaries[1:]):
        active = thresholds > 0.5 * (low + high)
        if not active.any():
            continue
        alpha_sum = float(alphas[active].sum())
        data_sum = float(data_units[active].sum())
        p_unconstrained = math.sqrt(config.unit_cost * se * alpha_sum / data_sum)
        candidates.add(min(max(p_unconstrained, low), high))
        if config.enforce_capacity:
            p_cap = alpha_sum / (config.capacity_natural + data_sum / se)
            candidates.add(min(max(p_cap, low), high))
    return sorted(candidates)


def refined_equilibria(
    stack: MarketStack, chunk_size: int = 256
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The candidate argmax, cross-checked by a grid-then-golden search.

    Per market: the argmax of the leader utility over Theorem 2's
    candidate matrix, then ``grid_then_golden_batch`` over ``[C, p_max]``
    (a 256-point scan, then a golden section in the best bracket); the
    better value wins. Every leader utility is the stack's own
    ``_outcomes_trusted`` evaluation, so the prices are bitwise those of
    the solve that ran this cross-check in production. Rows stream in
    chunks of ``chunk_size`` to bound the ``(m, 256, N_max)`` scan.

    Returns ``(prices, msp_utilities, feasible)``; infeasible rows carry
    whatever the search found (callers mask them with ``feasible``).
    """
    candidates, feasible = stack._candidate_rows(slice(None))
    prices = np.empty(stack.num_markets, dtype=np.float64)
    values = np.empty(stack.num_markets, dtype=np.float64)
    for start in range(0, stack.num_markets, chunk_size):
        rows = slice(start, min(start + chunk_size, stack.num_markets))

        def objective(p: np.ndarray, rows: slice = rows) -> np.ndarray:
            return stack._outcomes_trusted(p, rows).msp_utilities

        chunk = candidates[rows]
        candidate_values = objective(chunk)
        best = np.argmax(candidate_values, axis=1)[:, np.newaxis]
        best_prices = np.take_along_axis(chunk, best, axis=1)[:, 0]
        best_values = np.take_along_axis(candidate_values, best, axis=1)[:, 0]
        refined_prices, refined_values = grid_then_golden_batch(
            objective, stack.unit_costs[rows], stack.max_prices[rows]
        )
        refined = refined_values > best_values
        prices[rows] = np.where(refined, refined_prices, best_prices)
        values[rows] = np.where(refined, refined_values, best_values)
    return prices, values, feasible


def numerical_derivative(
    func: Callable[[float], float], x: float, *, h: float = 1e-6
) -> float:
    """Central-difference first derivative of ``func`` at ``x``."""
    return (func(x + h) - func(x - h)) / (2.0 * h)


def numerical_second_derivative(
    func: Callable[[float], float], x: float, *, h: float = 1e-4
) -> float:
    """Central-difference second derivative of ``func`` at ``x``."""
    return (func(x + h) - 2.0 * func(x) + func(x - h)) / (h * h)


def is_concave_on(
    func: Callable[[float], float],
    low: float,
    high: float,
    *,
    samples: int = 128,
    tolerance: float = 1e-9,
) -> bool:
    """Midpoint concavity of ``func`` on an evenly spaced grid of
    ``[low, high]`` (deterministic: every consecutive triple)."""
    if samples < 2 or low >= high:
        raise GameError("need samples >= 2 and low < high")
    xs = np.linspace(low, high, samples)
    values = np.array([func(float(x)) for x in xs])
    mids = 0.5 * (values[:-2] + values[2:])
    return bool(np.all(values[1:-1] + tolerance >= mids))


def verify_best_response(
    utility: Callable[[float], float],
    claimed_argmax: float,
    low: float,
    high: float,
    *,
    samples: int = 512,
    tolerance: float = 1e-6,
) -> bool:
    """Whether no grid point in ``[low, high]`` beats ``claimed_argmax``
    (relative tolerance guards against float noise near the optimum)."""
    best = utility(claimed_argmax)
    xs = np.linspace(low, high, samples)
    for x in xs:
        if utility(float(x)) > best + tolerance * max(1.0, abs(best)):
            return False
    return True


def verify_no_profitable_deviation(
    utilities: Sequence[Callable[[float], float]],
    strategies: Sequence[float],
    bounds: Sequence[tuple[float, float]],
    *,
    samples: int = 256,
    tolerance: float = 1e-6,
) -> bool:
    """Nash check: each player's strategy is a grid-argmax of their utility
    with everyone else fixed.

    ``utilities[i]`` must already close over the opponents' strategies.
    """
    if not (len(utilities) == len(strategies) == len(bounds)):
        raise GameError("utilities, strategies, bounds must align")
    for utility, strategy, (low, high) in zip(utilities, strategies, bounds):
        if not verify_best_response(
            utility, strategy, low, high, samples=samples, tolerance=tolerance
        ):
            return False
    return True


def scalar_best_response_price(
    market: MultiMspMarket, msp_index: int, prices: np.ndarray
) -> float:
    """One MSP's lattice best response, one ``msp_utility()`` per point.

    The first-strict-improvement sweep of
    ``MultiMspMarket._best_response_price``, written as the per-point
    loop: its bitwise ground truth and its speedup baseline.
    """
    spec = market.msps[msp_index]
    rivals = [p for i, p in enumerate(prices) if i != msp_index]
    best_price = float(prices[msp_index])
    best_value = market.msp_utility(msp_index, best_price, rivals)
    for price in market._price_lattice(spec.unit_cost):
        value = market.msp_utility(msp_index, float(price), rivals)
        if value > best_value + _IMPROVEMENT_MARGIN:
            best_price, best_value = float(price), value
    return best_price


def scalar_oligopoly_equilibrium(
    market: MultiMspMarket, **kwargs
) -> OligopolyEquilibrium:
    """``market.equilibrium(**kwargs)`` with the scalar best response.

    Installs :func:`scalar_best_response_price` as the market instance's
    ``_best_response_price`` for the duration of the call, so the
    production Gauss-Seidel loop (sweep order, damping, cycle detection,
    trace) runs unchanged around the per-point reference.
    """
    market._best_response_price = functools.partial(
        scalar_best_response_price, market
    )
    try:
        return market.equilibrium(**kwargs)
    finally:
        del market._best_response_price
