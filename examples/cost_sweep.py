"""Reproduce the Fig. 3(a)/(b) transmission-cost sweep (DRL vs baselines).

Run:  python examples/cost_sweep.py [--paper]

Sweeps the MSP's unit transmission cost C from 5 to 9 over the two-VMU
market, comparing the proposed DRL scheme against the random and greedy
baselines and the complete-information Stackelberg equilibrium. Expected
shapes (paper anchors): price rises ~25 -> ~34, total purchased bandwidth
falls ~28 -> ~22, both MSP and VMU utilities decline with cost, and DRL
tracks the equilibrium while beating both baselines.
"""

import argparse

from repro.experiments import ExperimentConfig, run_experiment


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
    result = run_experiment("fig3_cost", {"config": config})
    print(result.msp_table())
    print()
    print(result.vmu_table())

    drl = result.series("drl", "mean_msp_utility")
    eq = result.series("equilibrium", "mean_msp_utility")
    random_ = result.series("random", "mean_msp_utility")
    gaps = [abs(d - e) / e for d, e in zip(drl, eq)]
    print(f"\nmax DRL-vs-equilibrium utility gap over the sweep: {max(gaps):.2%}")
    print(
        "DRL beats random at every cost: "
        f"{all(d >= r for d, r in zip(drl, random_))}"
    )


if __name__ == "__main__":
    main()
