"""Experiments E3/E4 — Fig. 3(a)/(b): sweep over unit transmission cost C.

Setting (paper Sec. V-B): two VMUs, D = (200, 100) MB, α = (5, 5),
C swept from 5 to 9. Fig. 3(a) reports the MSP's utility and price per
scheme (proposed DRL vs random vs greedy, against the Stackelberg
equilibrium); Fig. 3(b) reports the VMUs' total utility and total
bandwidth strategy. Paper anchors: price ≈ 25 at C = 5 and ≈ 34 at C = 9;
total bandwidth ≈ 27.9 at C = 6 and ≈ 23.4 at C = 8.

The whole cost sweep rides the market-stack axis: the swept markets form
one :class:`repro.core.marketstack.MarketStack`, and every scheme that
commits to its price vector (random, equilibrium) evaluates the *entire*
grid of cost-varied markets as a single stacked solve —
``(M costs, R rounds, N VMUs)`` in one numpy pass — via
:func:`repro.experiments.runner.assemble_scheme_results`; ``drl`` and
``greedy`` run one ``market_scheme`` job per market point. Per cost, the
results equal the historical per-market loop exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.stackelberg import StackelbergMarket
from repro.entities.vmu import paper_fig2_population
from repro.experiments import api
from repro.experiments.api import CONFIG_PARAMS, ExperimentPlan, ParamSpec
from repro.experiments.runner import (
    PolicyEvaluation,
    assemble_scheme_results,
    plan_scheme_jobs,
)
from repro.utils.tables import Table

__all__ = ["CostSweepResult", "FIG3_COST"]

DEFAULT_COSTS = (5.0, 6.0, 7.0, 8.0, 9.0)
DEFAULT_SCHEMES = ("drl", "greedy", "random", "equilibrium")


@dataclass
class CostSweepResult:
    """Per-cost, per-scheme evaluations for Fig. 3(a)/(b)."""

    costs: tuple[float, ...]
    evaluations: dict[float, dict[str, PolicyEvaluation]] = field(
        default_factory=dict
    )

    def msp_table(self) -> Table:
        """Fig. 3(a): MSP utility and price strategy vs transmission cost."""
        schemes = sorted(next(iter(self.evaluations.values())).keys())
        headers = ["cost"]
        for scheme in schemes:
            headers += [f"{scheme}_utility", f"{scheme}_price"]
        table = Table(
            headers=tuple(headers),
            title="Fig. 3(a) — MSP utility & price vs transmission cost",
        )
        for cost in self.costs:
            row: list[object] = [cost]
            for scheme in schemes:
                evaluation = self.evaluations[cost][scheme]
                row += [evaluation.mean_msp_utility, evaluation.mean_price]
            table.add_row(*row)
        return table

    def vmu_table(self) -> Table:
        """Fig. 3(b): total VMU utility and bandwidth vs transmission cost."""
        schemes = sorted(next(iter(self.evaluations.values())).keys())
        headers = ["cost"]
        for scheme in schemes:
            headers += [f"{scheme}_vmu_utility", f"{scheme}_bandwidth"]
        table = Table(
            headers=tuple(headers),
            title="Fig. 3(b) — total VMU utility & bandwidth vs transmission cost",
        )
        for cost in self.costs:
            row: list[object] = [cost]
            for scheme in schemes:
                evaluation = self.evaluations[cost][scheme]
                row += [
                    evaluation.mean_total_vmu_utility,
                    evaluation.mean_total_bandwidth_market,
                ]
            table.add_row(*row)
        return table

    def series(self, scheme: str, metric: str) -> list[float]:
        """One scheme's series across the cost sweep (for shape checks)."""
        return [
            getattr(self.evaluations[cost][scheme], metric) for cost in self.costs
        ]


def _markets(params) -> list[StackelbergMarket]:
    base = StackelbergMarket(paper_fig2_population())
    return [base.with_unit_cost(float(cost)) for cost in params["costs"]]


def _pack(params, evaluations) -> CostSweepResult:
    result = CostSweepResult(costs=tuple(params["costs"]))
    for cost, by_scheme in zip(result.costs, evaluations):
        result.evaluations[cost] = by_scheme
    return result


def _plan(params) -> ExperimentPlan:
    config = api.resolve_config(params)
    markets = _markets(params)
    jobs, slots = plan_scheme_jobs(markets, config, tuple(params["schemes"]))
    return ExperimentPlan(
        "fig3_cost",
        dict(params),
        jobs,
        context={"config": config, "markets": markets, "slots": slots},
    )


def _assemble(plan: ExperimentPlan, results: list) -> CostSweepResult:
    evaluations = assemble_scheme_results(
        plan.context["markets"],
        plan.context["config"],
        tuple(plan.params["schemes"]),
        plan.context["slots"],
        results,
    )
    return _pack(plan.params, evaluations)


FIG3_COST = api.register(
    api.ExperimentSpec(
        name="fig3_cost",
        description=(
            "Fig. 3(a)/(b) — sweep the unit transmission cost C and "
            "compare pricing schemes (MSP utility/price, VMU "
            "utility/bandwidth per cost point)"
        ),
        params=(
            ParamSpec("costs", "floats", DEFAULT_COSTS, "unit transmission costs to sweep"),
            ParamSpec("schemes", "strs", DEFAULT_SCHEMES, "pricing schemes to compare"),
            *CONFIG_PARAMS,
        ),
        result_type=CostSweepResult,
        plan=_plan,
        assemble=_assemble,
        render=lambda r: f"{r.msp_table()}\n\n{r.vmu_table()}",
    )
)

