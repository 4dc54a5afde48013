"""Quickstart: build the paper's market and solve it analytically.

Run:  python examples/quickstart.py

Covers the core API in ~40 lines: the AoTM metric (Eq. 1), follower best
responses (Eq. 8), and the unique Stackelberg equilibrium (Theorem 2),
using the exact population of the paper's Fig. 2 (two VMUs, D = 200/100 MB,
α = 5).
"""

from repro.core import StackelbergMarket
from repro.entities import paper_fig2_population
from repro.utils import Table


def main() -> None:
    market = StackelbergMarket(paper_fig2_population())

    print(f"link spectral efficiency: {market.spectral_efficiency:.2f} bit/s/Hz")
    print(f"closed-form p* (unconstrained): "
          f"{market.unconstrained_equilibrium_price():.3f}")

    equilibrium = market.equilibrium()
    print(f"\nStackelberg equilibrium price: {equilibrium.price:.3f}")
    print(f"MSP utility at equilibrium:    {equilibrium.msp_utility:.3f}")

    table = Table(
        headers=("vmu", "D (MB)", "alpha", "b* (market units)", "AoTM", "utility"),
        title="\nPer-VMU equilibrium outcome",
    )
    for vmu, bandwidth, utility in zip(
        market.vmus, equilibrium.demands, equilibrium.vmu_utilities
    ):
        # Eq. (1): A_n = D_n / (b_n · SE), in natural units.
        aotm = vmu.data_units / (float(bandwidth) * market.spectral_efficiency)
        table.add_row(
            vmu.vmu_id,
            vmu.data_size_mb,
            vmu.immersion_coef,
            float(market.to_market_units(bandwidth)),
            aotm,
            float(utility),
        )
    print(table)

    # What happens off-equilibrium: followers still best-respond.
    for price in (10.0, equilibrium.price, 45.0):
        outcome = market.round_outcome(price)
        print(
            f"price {price:6.2f} -> total demand "
            f"{market.to_market_units(outcome.total_allocated):6.2f}, "
            f"MSP utility {outcome.msp_utility:6.3f}"
        )


if __name__ == "__main__":
    main()
