"""Price-of-anarchy experiment: welfare vs the number of competing MSPs.

For each ``N`` in ``ns``, builds the N-MSP oligopoly sharing the base
market's demand side (:func:`repro.core.multimsp.oligopoly_from_market`:
``split_capacity=True`` holds industry capacity fixed, ``False`` lets
each entrant bring the monopolist's capacity), solves the Gauss-Seidel
price equilibrium, and reports welfare / efficiency / PoA against the
monopoly and planner baselines of :func:`repro.core.welfare.welfare_report`.

Work units: one ``welfare_report`` job (the baselines) plus one
``oligopoly_cell`` job per N, each a :meth:`MultiMspMarket.equilibrium`
solve.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.core.multimsp import oligopoly_from_market
from repro.experiments import api
from repro.experiments.api import MARKET_PARAM, ExperimentPlan, ParamSpec
from repro.experiments.scheduler import (
    Job,
    market_from_payload,
    market_to_payload,
    solve_job,
)
from repro.experiments.welfare import WelfareResult
from repro.utils.tables import Table

__all__ = [
    "PriceOfAnarchyResult",
    "run_oligopoly_cell_job",
    "PRICE_OF_ANARCHY",
]


@dataclass
class PriceOfAnarchyResult:
    """Oligopoly welfare vs N against monopoly and planner baselines.

    ``poa`` is planner welfare over realised welfare (≥ 1 when the
    equilibrium is inefficient); ``efficiency`` is its reciprocal.
    ``cycle_lengths[i] > 0`` flags an Edgeworth cycle diagnosis for that
    N (the reported prices are then the cycle state at detection).
    """

    ns: list[int]
    prices: list[float]
    """Cheapest posted price per N (what VMUs actually pay)."""
    msp_profits: list[float]
    vmu_surpluses: list[float]
    welfares: list[float]
    efficiencies: list[float]
    poa: list[float]
    converged: list[bool]
    iterations: list[int]
    cycle_lengths: list[int]
    monopoly_price: float
    monopoly_welfare: float
    planner_price: float
    planner_welfare: float

    def table(self) -> Table:
        """Printable welfare-vs-N summary (the CLI's figure)."""
        table = Table(
            headers=(
                "N",
                "price",
                "MSP profit",
                "VMU surplus",
                "welfare",
                "efficiency",
                "PoA",
                "converged",
            ),
            title=(
                f"Price of anarchy vs N — monopoly welfare "
                f"{self.monopoly_welfare:.4f} @ p={self.monopoly_price:.4f}, "
                f"planner welfare {self.planner_welfare:.4f} "
                f"@ p={self.planner_price:.4f}"
            ),
        )
        for index, n in enumerate(self.ns):
            table.add_row(
                n,
                self.prices[index],
                self.msp_profits[index],
                self.vmu_surpluses[index],
                self.welfares[index],
                self.efficiencies[index],
                self.poa[index],
                self.converged[index],
            )
        return table


_PARAMS = (
    MARKET_PARAM,
    ParamSpec("ns", "ints", tuple(range(1, 9)), "MSP counts to sweep"),
    ParamSpec(
        "split_capacity", "bool", True,
        "True: split the monopolist's capacity across the N MSPs "
        "(fixed industry capacity); False: replicate it per MSP",
    ),
    ParamSpec("price_tick", "float", 0.05, "price lattice tick of the oligopoly game"),
    ParamSpec("damping", "float", 1.0, "best-response damping in (0, 1]"),
    ParamSpec("max_iterations", "int", 1000, "Gauss-Seidel sweep budget per N"),
    ParamSpec("tolerance", "float", 1e-3, "sup-norm convergence tolerance on prices"),
)


def run_oligopoly_cell_job(payload: Mapping) -> dict:
    """Job kind ``oligopoly_cell``: one N-MSP equilibrium solve."""
    market = market_from_payload(payload["market"])
    game = oligopoly_from_market(
        market,
        int(payload["n"]),
        split_capacity=bool(payload["split_capacity"]),
        price_tick=float(payload["price_tick"]),
    )
    equilibrium = game.equilibrium(
        max_iterations=int(payload["max_iterations"]),
        tolerance=float(payload["tolerance"]),
        damping=float(payload["damping"]),
        record_trace=False,
    )
    outcome = game.outcome(equilibrium.prices)
    profit = float(outcome.msp_utilities.sum())
    surplus = float(outcome.vmu_utilities.sum())
    return {
        "n": game.num_msps,
        "price": float(equilibrium.prices.min()),
        "profit": profit,
        "surplus": surplus,
        "welfare": profit + surplus,
        "converged": bool(equilibrium.converged),
        "iterations": int(equilibrium.iterations),
        "cycle_length": int(equilibrium.cycle_length),
    }


def _assemble(plan: ExperimentPlan, results: list) -> PriceOfAnarchyResult:
    welfare_payload, cells = results[0], results[1:]
    baseline = api.result_from_payload(WelfareResult, welfare_payload)
    planner_welfare = float(baseline.planner_welfare)
    welfares = [float(cell["welfare"]) for cell in cells]
    return PriceOfAnarchyResult(
        ns=[int(cell["n"]) for cell in cells],
        prices=[float(cell["price"]) for cell in cells],
        msp_profits=[float(cell["profit"]) for cell in cells],
        vmu_surpluses=[float(cell["surplus"]) for cell in cells],
        welfares=welfares,
        efficiencies=[
            welfare / planner_welfare if planner_welfare > 0.0 else float("nan")
            for welfare in welfares
        ],
        poa=[
            planner_welfare / welfare if welfare > 0.0 else float("inf")
            for welfare in welfares
        ],
        converged=[bool(cell["converged"]) for cell in cells],
        iterations=[int(cell["iterations"]) for cell in cells],
        cycle_lengths=[int(cell["cycle_length"]) for cell in cells],
        monopoly_price=float(baseline.monopoly_price),
        monopoly_welfare=float(baseline.monopoly_welfare),
        planner_price=float(baseline.planner_price),
        planner_welfare=planner_welfare,
    )


def _plan(params: Mapping) -> ExperimentPlan:
    market = api.resolve_market(params)
    market_payload = market_to_payload(market)
    jobs = [solve_job("welfare_report", {"market": market_payload})]
    for n in params["ns"]:
        jobs.append(
            Job(
                "oligopoly_cell",
                {
                    "market": market_payload,
                    "n": int(n),
                    "split_capacity": bool(params["split_capacity"]),
                    "price_tick": float(params["price_tick"]),
                    "damping": float(params["damping"]),
                    "max_iterations": int(params["max_iterations"]),
                    "tolerance": float(params["tolerance"]),
                },
            )
        )
    return ExperimentPlan("price_of_anarchy", dict(params), jobs)


PRICE_OF_ANARCHY = api.register(
    api.ExperimentSpec(
        name="price_of_anarchy",
        description=(
            "Price of anarchy vs N — N-MSP oligopoly welfare against the "
            "monopoly and planner baselines (one Gauss-Seidel solve per "
            "N; Edgeworth cycles diagnosed per N)"
        ),
        params=_PARAMS,
        result_type=PriceOfAnarchyResult,
        plan=_plan,
        assemble=_assemble,
    )
)
