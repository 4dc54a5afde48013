"""An independent brute-force oracle for the Stackelberg equilibrium.

Every other equilibrium pin compares one in-repo numpy path with another.
This oracle shares no code with the solver: the follower best response
(Eq. 8), proportional ``B_max`` rationing, the follower utility (Eq. 2)
and the leader utility (Eq. 4) are re-written below in pure Python, and
the leader's problem is solved by brute force over a dense 20 001-point
price lattice on ``[C, p_max]`` — the dense-action-lattice Stackelberg
check of a game-theory toolkit, not Theorem 2's closed form.

Assertions per market:

- the solver's leader utility is at least the lattice maximum (a lattice
  is a subset of ``[C, p_max]``, so the true optimum can only beat it);
- the oracle's objective at the solver's price reproduces the solver's
  ``msp_utility`` (rel 1e-12), and Eq. (2) at the solver's allocation its
  follower utilities — so the solver's price is scored by the model, not
  by itself.
"""

import math

import pytest

from repro.core.stackelberg import MarketConfig, StackelbergMarket
from repro.entities.vmu import VmuProfile, paper_fig2_population

from test_core_equilibria_stacked import dropout_markets, random_markets

LATTICE_POINTS = 20_001


def oracle_model(market):
    """The market's parameters as plain Python floats."""
    return {
        "alphas": [float(v.immersion_coef) for v in market.vmus],
        "data": [float(v.data_units) for v in market.vmus],
        "se": float(market.spectral_efficiency),
        "cost": float(market.config.unit_cost),
        "max_price": float(market.config.max_price),
        "capacity": (
            float(market.config.capacity_natural)
            if market.config.enforce_capacity
            else math.inf
        ),
    }


def allocations(model, price):
    """Eq. (8) best responses, then proportional rationing to ``B_max``."""
    demands = [
        max(0.0, alpha / price - d / model["se"])
        for alpha, d in zip(model["alphas"], model["data"])
    ]
    total = sum(demands)
    if total > model["capacity"]:
        scale = model["capacity"] / total
        return [b * scale for b in demands]
    return demands


def leader_utility(model, price):
    """Eq. (4): ``(p - C) · Σ_n b_n`` over the granted bandwidth."""
    return (price - model["cost"]) * sum(allocations(model, price))


def follower_utilities(model, price):
    """Eq. (2): ``α_n ln(1 + b_n SE / D_n) - p b_n`` per VMU."""
    return [
        alpha * math.log1p(b * model["se"] / d) - price * b
        for alpha, d, b in zip(
            model["alphas"], model["data"], allocations(model, price)
        )
    ]


def lattice_max(model):
    low, high = model["cost"], model["max_price"]
    step = (high - low) / (LATTICE_POINTS - 1)
    return max(
        leader_utility(model, low + k * step) for k in range(LATTICE_POINTS)
    )


def capacity_bound_markets():
    """Small ``B_max`` on fig-2-like populations: rationing binds at p*."""
    return [
        StackelbergMarket(
            paper_fig2_population(),
            config=MarketConfig(max_bandwidth=bandwidth),
        )
        for bandwidth in (1.0, 3.0, 8.0)
    ]


def price_cap_markets():
    """``p_max`` below the unconstrained optimum: the cap binds."""
    return [
        StackelbergMarket(
            paper_fig2_population(),
            config=MarketConfig(max_price=price, enforce_capacity=False),
        )
        for price in (9.0, 15.0)
    ] + [
        StackelbergMarket(
            [VmuProfile("v0", data_size_mb=40.0, immersion_coef=9.0)],
            config=MarketConfig(unit_cost=4.0, max_price=12.0),
        )
    ]


def check_against_oracle(market):
    model = oracle_model(market)
    equilibrium = market.equilibrium()
    best = lattice_max(model)
    assert equilibrium.msp_utility >= best * (1.0 - 1e-9)
    assert leader_utility(model, equilibrium.price) == pytest.approx(
        equilibrium.msp_utility, rel=1e-12, abs=0.0
    )
    expected = follower_utilities(model, equilibrium.price)
    assert list(equilibrium.vmu_utilities) == pytest.approx(
        expected, rel=1e-12, abs=1e-12
    )
    return equilibrium


@pytest.mark.parametrize("seed", range(30))
def test_random_markets_match_lattice_oracle(seed):
    (market,) = random_markets(1, root_seed=900 + seed)
    check_against_oracle(market)


@pytest.mark.parametrize("index", range(4))
def test_dropout_kinks_match_lattice_oracle(index):
    check_against_oracle(dropout_markets()[index])


@pytest.mark.parametrize("index", range(3))
def test_binding_capacity_matches_lattice_oracle(index):
    equilibrium = check_against_oracle(capacity_bound_markets()[index])
    assert equilibrium.capacity_binding


@pytest.mark.parametrize("index", range(3))
def test_binding_price_cap_matches_lattice_oracle(index):
    equilibrium = check_against_oracle(price_cap_markets()[index])
    assert equilibrium.price_cap_binding
