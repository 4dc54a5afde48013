"""Train the DRL incentive mechanism under incomplete information (Fig. 2).

Run:  python examples/train_drl_pricing.py [--paper]

The MSP agent only sees the public history of (price, demand) pairs — it
never observes the VMUs' private α_n / D_n — and still converges to the
complete-information Stackelberg equilibrium. The default budget is the
quick preset (~30 s); ``--paper`` uses the full Sec. V-A budget.
"""

import argparse

from repro.core import StackelbergMarket
from repro.entities import paper_fig2_population
from repro.experiments import (
    ExperimentConfig,
    evaluate_policies_stacked,
    run_experiment,
    train_drl,
)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--paper", action="store_true", help="full paper budget")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = (
        ExperimentConfig.paper(seed=args.seed)
        if args.paper
        else ExperimentConfig.quick(seed=args.seed)
    )

    result = run_experiment("fig2", {"config": config})
    print(result.table())
    print(
        f"\nconverged best utility : {result.converged_utility:.4f}"
        f"\nequilibrium utility    : {result.equilibrium_utility:.4f}"
        f"\nrelative gap           : {result.utility_gap:.2%}"
    )

    # The trained policy also transfers to live evaluation rounds.
    market = StackelbergMarket(paper_fig2_population())
    trained = train_drl(market, config)
    (evaluation,) = evaluate_policies_stacked([market], [trained.policy], rounds=50)
    print(
        f"\nlive evaluation: mean price {evaluation.mean_price:.2f}, "
        f"mean MSP utility {evaluation.mean_msp_utility:.3f}"
    )


if __name__ == "__main__":
    main()
