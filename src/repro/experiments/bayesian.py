"""Bayesian robust-pricing experiment: one price against a distribution.

Samples a scenario distribution around a base market
(:func:`repro.core.bayesian.sample_market_distribution` — scenario ``i``
is a pure function of ``(market, seed, i)``), solves the leader's
expected-utility price in one stacked pass, and compares it against the
per-scenario full-information oracles (the ``equilibria_stacked`` solve
of the same stack). The single work unit is one ``bayesian_pricing``
job; it rebuilds the market from its exact payload, so the result is
bitwise the same wherever the job runs.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.core.bayesian import ScenarioSpec, sample_market_distribution
from repro.experiments import api
from repro.experiments.api import MARKET_PARAM, ExperimentPlan, ParamSpec
from repro.experiments.scheduler import (
    market_from_payload,
    market_to_payload,
    solve_job,
)
from repro.utils.tables import Table

__all__ = [
    "BayesianPricingResult",
    "run_bayesian_pricing_job",
    "BAYESIAN_PRICING",
]


@dataclass
class BayesianPricingResult:
    """Robust price vs per-scenario oracles over one sampled distribution.

    ``scenario_prices`` / ``scenario_oracle_utilities`` are ``nan`` for
    scenarios whose deterministic game is infeasible; those scenarios
    contribute their realised (robust-price) utility to the expectation
    and zero to the oracle benchmark.
    """

    robust_price: float
    expected_utility: float
    num_scenarios: int
    seed: int
    weights: list[float]
    scenario_prices: list[float]
    scenario_oracle_utilities: list[float]
    scenario_robust_utilities: list[float]
    expected_oracle_utility: float
    expected_regret: float

    def table(self) -> Table:
        """Printable per-scenario comparison (the CLI's figure)."""
        table = Table(
            headers=(
                "scenario",
                "weight",
                "oracle price",
                "oracle utility",
                "robust utility",
            ),
            title=(
                f"Bayesian pricing — robust price {self.robust_price:.4f}, "
                f"E[utility] {self.expected_utility:.4f} "
                f"(oracle {self.expected_oracle_utility:.4f}, "
                f"regret {self.expected_regret:.4f})"
            ),
        )
        for index in range(self.num_scenarios):
            table.add_row(
                index,
                self.weights[index],
                self.scenario_prices[index],
                self.scenario_oracle_utilities[index],
                self.scenario_robust_utilities[index],
            )
        return table


_PARAMS = (
    MARKET_PARAM,
    ParamSpec("num_scenarios", "int", 16, "number of sampled market scenarios M"),
    ParamSpec("seed", "int", 0, "scenario-sampling seed (scenario i depends only on (seed, i))"),
    ParamSpec("alpha_jitter", "float", 0.25, "half-width of the multiplicative α_n jitter"),
    ParamSpec("data_jitter", "float", 0.25, "half-width of the multiplicative D_n jitter"),
    ParamSpec("capacity_jitter", "float", 0.0, "half-width of the multiplicative B_max jitter"),
)


def _compute(params: Mapping) -> BayesianPricingResult:
    market = api.resolve_market(params)
    spec = ScenarioSpec(
        num_scenarios=int(params["num_scenarios"]),
        seed=int(params["seed"]),
        alpha_jitter=float(params["alpha_jitter"]),
        data_jitter=float(params["data_jitter"]),
        capacity_jitter=float(params["capacity_jitter"]),
    )
    distribution = sample_market_distribution(market, spec)
    equilibrium = distribution.equilibrium()
    oracles = distribution.oracle_equilibria()
    weights = distribution.weights
    oracle_utilities = np.where(
        oracles.feasible, oracles.msp_utilities, 0.0
    )
    # Same explicit left-to-right reduction as the robust objective, so
    # the oracle expectation and the regret are deterministic for any M.
    expected_oracle = weights[0] * oracle_utilities[0]
    for index in range(1, len(weights)):
        expected_oracle = expected_oracle + weights[index] * oracle_utilities[index]
    return BayesianPricingResult(
        robust_price=float(equilibrium.price),
        expected_utility=float(equilibrium.expected_utility),
        num_scenarios=spec.num_scenarios,
        seed=spec.seed,
        weights=[float(w) for w in weights],
        scenario_prices=[float(p) for p in oracles.prices],
        scenario_oracle_utilities=[float(u) for u in oracles.msp_utilities],
        scenario_robust_utilities=[
            float(u) for u in equilibrium.scenario_utilities
        ],
        expected_oracle_utility=float(expected_oracle),
        expected_regret=float(expected_oracle - equilibrium.expected_utility),
    )


def run_bayesian_pricing_job(payload: Mapping) -> dict:
    """Job kind ``bayesian_pricing``: the whole robust solve as one unit.

    The scenario sample is a pure function of (market, seed, i) and every
    solve is deterministic, so the worker's result is bitwise-equal to the
    in-process one.
    """
    params = dict(payload)
    params["market"] = market_from_payload(payload["market"])
    return api.result_to_payload(_compute(params))


def _plan(params: Mapping) -> ExperimentPlan:
    market = api.resolve_market(params)
    payload = {
        "market": market_to_payload(market),
        "num_scenarios": int(params["num_scenarios"]),
        "seed": int(params["seed"]),
        "alpha_jitter": float(params["alpha_jitter"]),
        "data_jitter": float(params["data_jitter"]),
        "capacity_jitter": float(params["capacity_jitter"]),
    }
    return ExperimentPlan(
        "bayesian_pricing", dict(params), [solve_job("bayesian_pricing", payload)]
    )


def _assemble(plan: ExperimentPlan, results: list) -> BayesianPricingResult:
    return api.result_from_payload(BayesianPricingResult, results[0])


BAYESIAN_PRICING = api.register(
    api.ExperimentSpec(
        name="bayesian_pricing",
        description=(
            "Bayesian Stackelberg robust pricing — one expected-utility "
            "price against a sampled market distribution, compared to the "
            "per-scenario full-information oracles"
        ),
        params=_PARAMS,
        result_type=BayesianPricingResult,
        plan=_plan,
        assemble=_assemble,
    )
)
