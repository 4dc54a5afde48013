"""Welfare experiment: monopoly equilibrium vs the social planner.

Wraps :func:`repro.core.welfare.welfare_report` as a registered
:class:`~repro.experiments.api.ExperimentSpec` so the welfare analysis
runs through the same ``run_experiment`` entry point — and the same
scheduler jobs/caching — as every other experiment. The single work unit
is one ``welfare_report`` job (the market's stacked monopoly solve plus
the planner's price search).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.core.welfare import WelfareReport, welfare_report
from repro.experiments import api
from repro.experiments.api import MARKET_PARAM, ExperimentPlan
from repro.experiments.scheduler import (
    market_from_payload,
    market_to_payload,
    solve_job,
)
from repro.utils.tables import Table

__all__ = [
    "WelfareResult",
    "run_welfare_report_job",
    "WELFARE",
]


@dataclass
class WelfareResult:
    """Welfare decomposition of one market, as an experiment result."""

    monopoly_price: float
    monopoly_welfare: float
    monopoly_msp_share: float
    planner_price: float
    planner_welfare: float
    deadweight_loss: float
    efficiency: float

    def table(self) -> Table:
        """Printable summary (the CLI's welfare figure)."""
        table = Table(
            headers=("quantity", "value"),
            title="Welfare analysis — monopoly vs planner",
        )
        rows = {
            "monopoly price": self.monopoly_price,
            "monopoly welfare": self.monopoly_welfare,
            "MSP share of welfare": self.monopoly_msp_share,
            "planner price": self.planner_price,
            "planner welfare": self.planner_welfare,
            "deadweight loss": self.deadweight_loss,
            "efficiency": self.efficiency,
        }
        for name, value in rows.items():
            table.add_row(name, value)
        return table


def _result_from_report(report: WelfareReport) -> WelfareResult:
    return WelfareResult(
        monopoly_price=float(report.monopoly_price),
        monopoly_welfare=float(report.monopoly_welfare),
        monopoly_msp_share=float(report.monopoly_msp_share),
        planner_price=float(report.planner_price),
        planner_welfare=float(report.planner_welfare),
        deadweight_loss=float(report.deadweight_loss),
        efficiency=float(report.efficiency),
    )


def run_welfare_report_job(payload: Mapping) -> dict:
    """Job kind ``welfare_report``: one market's welfare decomposition.

    The market's monopoly equilibrium is the ``M = 1`` stacked solve and
    the planner search is deterministic, so a report computed in a worker
    is bitwise-equal to the in-process one.
    """
    market = market_from_payload(payload["market"])
    return api.result_to_payload(_result_from_report(welfare_report(market)))


def _plan(params) -> ExperimentPlan:
    market = api.resolve_market(params)
    job = solve_job("welfare_report", {"market": market_to_payload(market)})
    return ExperimentPlan("welfare", dict(params), [job])


def _assemble(plan: ExperimentPlan, results: list) -> WelfareResult:
    return api.result_from_payload(WelfareResult, results[0])


WELFARE = api.register(
    api.ExperimentSpec(
        name="welfare",
        description=(
            "Welfare analysis — monopoly equilibrium vs the social "
            "planner (welfare split, deadweight loss, efficiency)"
        ),
        params=(MARKET_PARAM,),
        result_type=WelfareResult,
        plan=_plan,
        assemble=_assemble,
    )
)
