"""Scalar game-solve references and numerical game-analysis checks.

Tests and benchmarks import this module as ``game_oracle``. None of it is
a production path; each piece is the loop-shaped reference a vectorised
production path is pinned or timed against:

- :func:`scalar_landscape` — one scalar Stackelberg solve per price, the
  baseline of :meth:`StackelbergMarket.outcomes_batch`;
- :func:`segment_candidates` — Theorem 2's per-segment candidate
  enumeration, the scalar form of ``MarketStack._candidate_rows``;
- :func:`numerical_derivative`, :func:`numerical_second_derivative`,
  :func:`is_concave_on`, :func:`verify_best_response` and
  :func:`verify_no_profitable_deviation` — Theorems 1 and 2 checked
  numerically on an instantiated market.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

import numpy as np

from repro.core.stackelberg import PriceBatchOutcome, StackelbergMarket
from repro.errors import GameError


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
