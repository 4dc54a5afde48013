"""Future-work extension: competition between multiple MSPs.

Run:  python examples/multi_msp_competition.py

The paper's market has a single monopolist MSP; its conclusion proposes
extending to multiple MSPs. This example runs the oligopoly extension and
shows the classic economics:

1. a single provider recovers the paper's monopoly equilibrium;
2. a second identical provider triggers Bertrand undercutting — prices
   collapse to marginal cost (+1 tick) and the providers' profit vanishes;
3. VMUs capture the surplus: their utility rises sharply under
   competition;
4. asymmetric costs: the low-cost provider wins the whole market, priced
   just under the rival's cost floor.
"""

from repro.core import StackelbergMarket
from repro.core.multimsp import MspSpec, MultiMspMarket
from repro.entities import paper_fig2_population
from repro.utils import Table


def main() -> None:
    vmus = paper_fig2_population()
    monopoly = StackelbergMarket(vmus).equilibrium()

    table = Table(
        headers=("scenario", "p_low", "p_high", "profit_total", "vmu_utility_total"),
        title="Monopoly vs competition (paper's 2-VMU population)",
    )

    def vmu_welfare(market: MultiMspMarket, prices) -> float:
        return float(market.outcome(list(prices)).vmu_utilities.sum())

    # 1. single MSP == the paper's monopoly
    single = MultiMspMarket(vmus, [MspSpec("msp", unit_cost=5.0, capacity=0.5)])
    eq1 = single.equilibrium()
    table.add_row(
        "monopoly",
        float(eq1.prices.min()),
        float(eq1.prices.max()),
        float(eq1.msp_utilities.sum()),
        vmu_welfare(single, eq1.prices),
    )

    # 2. identical duopoly: Bertrand collapse
    duo = MultiMspMarket(
        vmus,
        [
            MspSpec("msp-a", unit_cost=5.0, capacity=10.0),
            MspSpec("msp-b", unit_cost=5.0, capacity=10.0),
        ],
    )
    eq2 = duo.equilibrium(initial_prices=[25.0, 30.0])
    table.add_row(
        "identical duopoly",
        float(eq2.prices.min()),
        float(eq2.prices.max()),
        float(eq2.msp_utilities.sum()),
        vmu_welfare(duo, eq2.prices),
    )

    # 3. asymmetric costs
    asym = MultiMspMarket(
        vmus,
        [
            MspSpec("cheap", unit_cost=5.0, capacity=10.0),
            MspSpec("dear", unit_cost=12.0, capacity=10.0),
        ],
    )
    eq3 = asym.equilibrium(initial_prices=[20.0, 20.0])
    table.add_row(
        "asymmetric duopoly",
        float(eq3.prices.min()),
        float(eq3.prices.max()),
        float(eq3.msp_utilities.sum()),
        vmu_welfare(asym, eq3.prices),
    )

    print(f"paper's monopoly equilibrium: p* = {monopoly.price:.2f}, "
          f"MSP utility = {monopoly.msp_utility:.3f}\n")
    print(table)
    print(
        "\nBertrand takeaway: one extra provider moves the price from "
        f"{monopoly.price:.2f} to {float(eq2.prices.min()):.2f} and hands "
        "the surplus to the VMUs."
    )


if __name__ == "__main__":
    main()
