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

The same oracle checks the Bayesian game (:class:`BayesianStackelbergMarket`).
Like the chance node ``M`` of PyNFG's Stackelberg duopoly, whose CPT
``MCPT`` weights the market conditions the leader prices against before
nature draws one, the oracle's expected leader utility is the
CPT-weighted mean ``Σ_m MCPT[m] · U_MSP(p; scenario m)`` of the pure-Python
Eq. (4) above, maximised by the same brute-force lattice search. The
solver's price must score at least the lattice maximum, sit within two
lattice steps of the lattice argmax, and its reported expected and
per-scenario utilities must be the oracle's at that price.

A second, differential oracle holds the solve to the search it replaced:
``refined_equilibria`` in ``tests/game_oracle.py`` cross-checks Theorem
2's candidate argmax with a 256-point scan and a golden section, as the
production solve once did. On 10 000-market city stacks (seeds 0, 1 and
7) and on every lattice market, the argmax's leader utility must reach
the refined one to 1e-15 relative, and its price must agree to 1e-7
relative: the candidates contain the maximiser, so the search can only
shave rounding off the flat top.

The paper states the follower's payoff through its freshness metric:
Eq. (1)'s AoTM ``A = D / (b·SE)`` and the immersion ``α·ln(1 + 1/A)``.
:func:`aotm` and :func:`immersion` keep that scalar form, and the
production Eq. (2) kernel ``_vmu_utilities_rows`` must equal
``immersion − p·b`` on every lattice market across its price range.
"""

import math

import numpy as np
import pytest

from repro.core import MarketStack
from repro.core.bayesian import (
    BayesianStackelbergMarket,
    ScenarioSpec,
    sample_market_distribution,
)
from repro.core.stackelberg import MarketConfig, StackelbergMarket
from repro.core.utilities import _vmu_utilities_rows
from repro.entities.vmu import VmuProfile, paper_fig2_population
from repro.mobility.citygrid import CityGridSpec, city_columns

from game_oracle import refined_equilibria
from test_core_equilibria_stacked import (
    dropout_markets,
    infeasible_market,
    random_markets,
)

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


def aotm(data_units, bandwidth, spectral_efficiency):
    """Eq. (1): the Age of Twin Migration ``A = D / (b·SE)``, ``inf`` when
    no bandwidth is bought."""
    if bandwidth == 0.0:
        return math.inf
    return data_units / (bandwidth * spectral_efficiency)


def immersion(immersion_coef, aotm_value):
    """The VMU's immersion ``G = α·ln(1 + 1/A)`` (zero at infinite age)."""
    return immersion_coef * math.log(1.0 + 1.0 / aotm_value)


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


def lattice_markets():
    """Every market the lattice tests below solve."""
    return (
        [random_markets(1, root_seed=900 + seed)[0] for seed in range(30)]
        + dropout_markets()
        + capacity_bound_markets()
        + price_cap_markets()
    )


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


REFINED_UTILITY_REL = 1e-15
REFINED_PRICE_REL = 1e-7


def assert_matches_refined(stack):
    solved = stack.equilibria_stacked()
    prices, utilities, feasible = refined_equilibria(stack)
    assert np.array_equal(solved.feasible, feasible)
    assert np.all(
        solved.msp_utilities[feasible]
        >= utilities[feasible] * (1.0 - REFINED_UTILITY_REL)
    )
    assert np.all(
        np.abs(solved.prices[feasible] - prices[feasible])
        <= REFINED_PRICE_REL * prices[feasible]
    )


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_city_argmax_matches_refined_oracle(seed):
    spec = CityGridSpec.for_markets(10_000, seed=seed)
    assert_matches_refined(MarketStack.from_columns(city_columns(spec)))


def test_lattice_argmax_matches_refined_oracle():
    markets = lattice_markets()
    assert len(markets) == 40
    for market in markets:
        assert_matches_refined(MarketStack([market]))


def test_vmu_utilities_match_aotm_immersion_form():
    """Production Eq. (2) equals ``α·ln(1 + 1/A) − p·b`` with Eq. (1)'s
    AoTM, at nine prices spanning ``[C, p_max]`` of every lattice market."""
    for market in lattice_markets():
        model = oracle_model(market)
        low, high = model["cost"], model["max_price"]
        prices = [low + k * (high - low) / 8 for k in range(9)]
        bandwidths = [allocations(model, price) for price in prices]
        got = _vmu_utilities_rows(
            np.array([model["alphas"]]),
            np.array([model["data"]]),
            np.array([bandwidths]),
            np.array([prices]),
            np.array([model["se"]]),
        )
        for price, row, got_row in zip(prices, bandwidths, got[0].tolist()):
            expected = [
                immersion(alpha, aotm(d, b, model["se"])) - price * b
                for alpha, d, b in zip(model["alphas"], model["data"], row)
            ]
            assert got_row == pytest.approx(expected, rel=1e-9, abs=1e-12)


def expected_leader_utility(models, cpt, price):
    """The chance node's CPT-weighted mean of Eq. (4) over the scenarios."""
    return sum(
        weight * leader_utility(model, price)
        for weight, model in zip(cpt, models)
    )


def bayesian_distributions():
    """(distribution, raw scenario weights) pairs the Bayesian oracle
    solves: sampled jitter around slack and capacity-bound markets, a
    non-uniform CPT, and one scenario that never trades."""
    paper = StackelbergMarket(paper_fig2_population())
    tight = StackelbergMarket(
        paper_fig2_population(), config=MarketConfig(max_bandwidth=8.0)
    )
    sampled = [
        (paper, ScenarioSpec(num_scenarios=4, seed=seed)) for seed in range(3)
    ] + [
        (tight, ScenarioSpec(num_scenarios=5, seed=7, capacity_jitter=0.5)),
        (
            random_markets(1, root_seed=950)[0],
            ScenarioSpec(num_scenarios=3, seed=1, alpha_jitter=0.5),
        ),
    ]
    pairs = [
        (sample_market_distribution(base, spec), [1.0] * spec.num_scenarios)
        for base, spec in sampled
    ]
    config = MarketConfig(unit_cost=45.0)
    skewed = [
        StackelbergMarket(paper_fig2_population(), config=config),
        StackelbergMarket(
            [VmuProfile("v0", data_size_mb=60.0, immersion_coef=30.0)],
            config=config,
        ),
        infeasible_market(),
    ]
    weights = [0.5, 0.3, 0.2]
    pairs.append((BayesianStackelbergMarket(skewed, weights=weights), weights))
    return pairs


@pytest.mark.parametrize("index", range(6))
def test_bayesian_equilibrium_matches_lattice_oracle(index):
    distribution, raw_weights = bayesian_distributions()[index]
    models = [oracle_model(market) for market in distribution.scenarios]
    total = sum(raw_weights)
    cpt = [weight / total for weight in raw_weights]
    low, high = models[0]["cost"], models[0]["max_price"]
    step = (high - low) / (LATTICE_POINTS - 1)
    best_value, best_price = max(
        (expected_leader_utility(models, cpt, low + k * step), low + k * step)
        for k in range(LATTICE_POINTS)
    )

    equilibrium = distribution.equilibrium()
    assert equilibrium.expected_utility >= best_value * (1.0 - 1e-9)
    assert abs(equilibrium.price - best_price) <= 2.0 * step
    assert expected_leader_utility(
        models, cpt, equilibrium.price
    ) == pytest.approx(equilibrium.expected_utility, rel=1e-12, abs=0.0)
    assert list(equilibrium.scenario_utilities) == pytest.approx(
        [leader_utility(model, equilibrium.price) for model in models],
        rel=1e-12,
        abs=1e-12,
    )
    assert list(equilibrium.weights) == pytest.approx(cpt, rel=1e-15)
