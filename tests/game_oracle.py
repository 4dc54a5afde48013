"""Scalar game-solve references and numerical game-analysis checks.

Tests and benchmarks import this module as ``game_oracle``. None of it is
a production path; each piece is the loop-shaped reference a vectorised
production path is pinned or timed against:

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
