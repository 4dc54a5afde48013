"""Experiments E5/E6 — Fig. 3(c)/(d): sweep over the number of VMUs N.

Setting (paper Sec. V-B): identical VMUs with D = 100 MB and α = 5,
N from 1 to 6, C = 5. Fig. 3(c): the MSP's utility grows with N
(7.03 at N = 2 → 20.35 at N = 6) while the price stays flat until the
B_max capacity starts binding and then rises. Fig. 3(d): the average
bandwidth per VMU stays flat then falls, and average VMU utility drops as
competition for capacity grows.

The population sweep is the *ragged* case of the market-stack axis: markets
with N = 1..6 VMUs stack into one padded-and-masked
:class:`repro.core.marketstack.MarketStack`, and every scheme that commits
to its price vector (random, equilibrium) evaluates the entire grid of
populations as a single stacked solve via
:func:`repro.experiments.runner.assemble_scheme_results`; ``drl`` and
``greedy`` run one ``market_scheme`` job per market point. Per N, the
results equal the historical per-market loop exactly — the stack reduces
each market over its own population, so padding never leaks into totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.stackelberg import StackelbergMarket
from repro.entities.vmu import paper_fig2_population, uniform_population
from repro.experiments import api
from repro.experiments.api import CONFIG_PARAMS, ExperimentPlan, ParamSpec
from repro.experiments.runner import (
    PolicyEvaluation,
    assemble_scheme_results,
    plan_scheme_jobs,
)
from repro.utils.tables import Table

__all__ = ["VmuSweepResult", "FIG3_VMUS"]

DEFAULT_COUNTS = (1, 2, 3, 4, 5, 6)
DEFAULT_SCHEMES = ("drl", "greedy", "random", "equilibrium")


@dataclass
class VmuSweepResult:
    """Per-N, per-scheme evaluations for Fig. 3(c)/(d)."""

    counts: tuple[int, ...]
    evaluations: dict[int, dict[str, PolicyEvaluation]] = field(
        default_factory=dict
    )

    def msp_table(self) -> Table:
        """Fig. 3(c): MSP utility and price strategy vs number of VMUs."""
        schemes = sorted(next(iter(self.evaluations.values())).keys())
        headers = ["num_vmus"]
        for scheme in schemes:
            headers += [f"{scheme}_utility", f"{scheme}_price"]
        table = Table(
            headers=tuple(headers),
            title="Fig. 3(c) — MSP utility & price vs number of VMUs",
        )
        for count in self.counts:
            row: list[object] = [count]
            for scheme in schemes:
                evaluation = self.evaluations[count][scheme]
                row += [evaluation.mean_msp_utility, evaluation.mean_price]
            table.add_row(*row)
        return table

    def vmu_table(self) -> Table:
        """Fig. 3(d): average VMU utility and bandwidth vs number of VMUs."""
        schemes = sorted(next(iter(self.evaluations.values())).keys())
        headers = ["num_vmus"]
        for scheme in schemes:
            headers += [f"{scheme}_avg_vmu_utility", f"{scheme}_avg_bandwidth"]
        table = Table(
            headers=tuple(headers),
            title="Fig. 3(d) — avg VMU utility & bandwidth vs number of VMUs",
        )
        for count in self.counts:
            row: list[object] = [count]
            for scheme in schemes:
                evaluation = self.evaluations[count][scheme]
                row += [
                    evaluation.mean_avg_vmu_utility,
                    evaluation.mean_total_bandwidth_market / count,
                ]
            table.add_row(*row)
        return table

    def series(self, scheme: str, metric: str) -> list[float]:
        """One scheme's series across the N sweep."""
        return [
            getattr(self.evaluations[count][scheme], metric)
            for count in self.counts
        ]


def _markets(params) -> list[StackelbergMarket]:
    base = StackelbergMarket(paper_fig2_population())
    return [
        base.with_vmus(
            uniform_population(
                count,
                data_size_mb=float(params["data_size_mb"]),
                immersion_coef=float(params["immersion_coef"]),
            )
        )
        for count in params["counts"]
    ]


def _pack(params, evaluations) -> VmuSweepResult:
    result = VmuSweepResult(counts=tuple(params["counts"]))
    for count, by_scheme in zip(result.counts, evaluations):
        result.evaluations[count] = by_scheme
    return result


def _plan(params) -> ExperimentPlan:
    config = api.resolve_config(params)
    markets = _markets(params)
    jobs, slots = plan_scheme_jobs(markets, config, tuple(params["schemes"]))
    return ExperimentPlan(
        "fig3_vmus",
        dict(params),
        jobs,
        context={"config": config, "markets": markets, "slots": slots},
    )


def _assemble(plan: ExperimentPlan, results: list) -> VmuSweepResult:
    evaluations = assemble_scheme_results(
        plan.context["markets"],
        plan.context["config"],
        tuple(plan.params["schemes"]),
        plan.context["slots"],
        results,
    )
    return _pack(plan.params, evaluations)


FIG3_VMUS = api.register(
    api.ExperimentSpec(
        name="fig3_vmus",
        description=(
            "Fig. 3(c)/(d) — sweep the number of VMUs N and compare "
            "pricing schemes (MSP utility/price, per-VMU "
            "utility/bandwidth per population point)"
        ),
        params=(
            ParamSpec("counts", "ints", DEFAULT_COUNTS, "population sizes N to sweep"),
            ParamSpec("schemes", "strs", DEFAULT_SCHEMES, "pricing schemes to compare"),
            ParamSpec("data_size_mb", "float", 100.0, "per-VMU data size D (MB)"),
            ParamSpec("immersion_coef", "float", 5.0, "per-VMU immersion coefficient α"),
            *CONFIG_PARAMS,
        ),
        result_type=VmuSweepResult,
        plan=_plan,
        assemble=_assemble,
        render=lambda r: f"{r.msp_table()}\n\n{r.vmu_table()}",
    )
)

