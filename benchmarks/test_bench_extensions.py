"""E10/E11 — extension benchmarks: multi-MSP competition, welfare, and
multi-seed statistical comparison.

Not paper figures; these regenerate the extension results recorded in
EXPERIMENTS.md and guard their qualitative claims.
"""

import pytest

from repro.core.multimsp import MspSpec, MultiMspMarket
from repro.core.stackelberg import StackelbergMarket
from repro.core.welfare import welfare_report
from repro.entities.vmu import paper_fig2_population
from repro.experiments import ExperimentConfig, run_experiment
from repro.utils.tables import Table

pytestmark = pytest.mark.slow


def test_multi_msp_competition(benchmark, record_table):
    """Monopoly -> duopoly: Bertrand collapse of the equilibrium price."""
    vmus = paper_fig2_population()

    def run():
        monopoly = StackelbergMarket(vmus).equilibrium()
        duopoly = MultiMspMarket(
            vmus,
            [
                MspSpec("msp-a", unit_cost=5.0, capacity=10.0),
                MspSpec("msp-b", unit_cost=5.0, capacity=10.0),
            ],
        ).equilibrium(initial_prices=[25.0, 30.0])
        return monopoly, duopoly

    monopoly, duopoly = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(
        headers=("market", "price", "total provider profit"),
        title="E10 — monopoly vs Bertrand duopoly",
    )
    table.add_row("monopoly", monopoly.price, monopoly.msp_utility)
    table.add_row(
        "duopoly", float(duopoly.prices.min()), float(duopoly.msp_utilities.sum())
    )
    record_table("ext_multimsp", table)

    assert duopoly.converged
    assert float(duopoly.prices.min()) < 0.3 * monopoly.price
    assert float(duopoly.msp_utilities.sum()) < 0.1 * monopoly.msp_utility


def test_welfare_analysis(benchmark, record_table):
    """Monopoly pricing burns welfare relative to the planner."""
    market = StackelbergMarket(paper_fig2_population())
    report = benchmark.pedantic(
        lambda: welfare_report(market), rounds=1, iterations=1
    )
    table = Table(
        headers=("quantity", "value"),
        title="E10 — welfare decomposition (paper's 2-VMU market)",
    )
    table.add_row("monopoly price", report.monopoly_price)
    table.add_row("planner price", report.planner_price)
    table.add_row("monopoly welfare", report.monopoly_welfare)
    table.add_row("planner welfare", report.planner_welfare)
    table.add_row("deadweight loss", report.deadweight_loss)
    table.add_row("efficiency", report.efficiency)
    record_table("ext_welfare", table)

    assert report.deadweight_loss > 0.0
    assert report.planner_price < report.monopoly_price
    assert 0.0 < report.efficiency < 1.0


def test_multiseed_drl_vs_random(benchmark, record_table):
    """DRL beats random across seeds with statistical significance."""
    market = StackelbergMarket(paper_fig2_population())
    config = ExperimentConfig(
        num_episodes=60,
        rounds_per_episode=40,
        learning_rate=1e-3,
        gamma=0.0,
        reward_mode="utility",
        evaluation_rounds=40,
    )

    result = benchmark.pedantic(
        lambda: run_experiment(
            "multiseed",
            {
                "market": market,
                "config": config,
                "seeds": (0, 1, 2),
                "schemes": ("drl", "random"),
            },
        ),
        rounds=1,
        iterations=1,
    )
    record_table("ext_multiseed", result.table())

    drl = result.stats("drl")
    random_ = result.stats("random")
    assert drl.mean > random_.mean
    assert result.significance("drl", "random") < 0.05
