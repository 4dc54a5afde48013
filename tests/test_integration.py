"""Cross-module integration tests.

These exercise the library the way the paper's evaluation does: train the
DRL mechanism under incomplete information and check it reaches the
complete-information equilibrium; verify no player can deviate profitably.

The DRL test uses a reduced-but-real budget (~10 s), so it asserts actual
learning quality, not just plumbing.
"""

import numpy as np
import pytest
from game_oracle import run_rounds, verify_best_response, vmu_utility

from repro.baselines import OraclePricing, RandomPricing
from repro.core.stackelberg import StackelbergMarket
from repro.entities.vmu import paper_fig2_population
from repro.experiments import (
    ExperimentConfig,
    evaluate_policies_stacked,
    train_drl,
)


def evaluate_one(market, policy, *, rounds):
    """The ``M = 1`` call of the stacked evaluator."""
    (evaluation,) = evaluate_policies_stacked([market], [policy], rounds=rounds)
    return evaluation


@pytest.fixture(scope="module")
def market():
    return StackelbergMarket(paper_fig2_population())


@pytest.fixture(scope="module")
def trained(market):
    config = ExperimentConfig(
        num_episodes=80,
        rounds_per_episode=40,
        learning_rate=1e-3,
        gamma=0.0,
        reward_mode="utility",
        evaluation_rounds=40,
        seed=0,
    )
    return train_drl(market, config), config


class TestDrlReachesEquilibrium:
    def test_converged_utility_near_equilibrium(self, market, trained):
        """Fig. 2(b)'s claim: incomplete-information DRL ~= complete-
        information Stackelberg."""
        (result, config) = trained
        equilibrium = market.equilibrium()
        evaluation = evaluate_one(
            market, result.policy, rounds=config.evaluation_rounds
        )
        gap = abs(evaluation.mean_msp_utility - equilibrium.msp_utility)
        assert gap / equilibrium.msp_utility < 0.05

    def test_learned_price_near_equilibrium_price(self, market, trained):
        (result, config) = trained
        equilibrium = market.equilibrium()
        evaluation = evaluate_one(market, result.policy, rounds=20)
        assert evaluation.mean_price == pytest.approx(
            equilibrium.price, abs=3.0
        )

    def test_drl_beats_random_mean_utility(self, market, trained):
        """Fig. 3(a)'s ordering: proposed > random baseline."""
        (result, config) = trained
        drl = evaluate_one(market, result.policy, rounds=50)
        random_ = evaluate_one(
            market, RandomPricing(5.0, 50.0, seed=123), rounds=50
        )
        assert drl.mean_msp_utility > random_.mean_msp_utility

    def test_training_improves_over_time(self, market, trained):
        (result, config) = trained
        utilities = result.training.episode_mean_utilities
        first = np.mean(utilities[:10])
        last = np.mean(utilities[-10:])
        assert last > first


class TestEquilibriumIsNash:
    def test_no_follower_deviation(self, market):
        """At the computed equilibrium, every VMU's bandwidth is its grid
        argmax — Definition 1's second condition."""
        eq = market.equilibrium()
        se = market.spectral_efficiency
        for vmu, bandwidth in zip(market.vmus, eq.demands):
            def utility(b, vmu=vmu):
                return vmu_utility(
                    vmu.immersion_coef, vmu.data_units, b, eq.price, se
                )

            assert verify_best_response(
                utility, float(bandwidth), 0.0, 1.0, tolerance=1e-7
            )

    def test_no_leader_deviation(self, market):
        """First condition: no price beats p* given follower best response."""
        eq = market.equilibrium()
        for price in np.linspace(5.0, 50.0, 200):
            assert market.msp_utility(float(price)) <= eq.msp_utility * (
                1.0 + 1e-9
            )

    def test_oracle_policy_realises_equilibrium(self, market):
        _, outcomes = run_rounds(market, OraclePricing(market), 3)
        eq = market.equilibrium()
        np.testing.assert_allclose(outcomes[0].allocations, eq.demands)

