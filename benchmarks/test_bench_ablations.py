"""E7/E8 — ablations over the mechanism's design choices.

E7 compares the paper's binary Eq.-12 reward with the shaped per-round
utility reward: both must converge to the Stackelberg equilibrium (the
reward formulation is a training-speed choice, not an outcome choice).

E8 varies the observation history length L: with a stationary follower
population, even L = 1 suffices — quantifying how little of Eq. (11)'s
history the agent actually needs.
"""

import pytest

from repro.experiments import ExperimentConfig, run_experiment

pytestmark = pytest.mark.slow

ABLATION_CONFIG = ExperimentConfig(
    num_episodes=100,
    rounds_per_episode=50,
    learning_rate=1e-3,
    gamma=0.0,
    entropy_coef=1e-3,
    evaluation_rounds=50,
    seed=0,
    reward_mode="utility",  # the reward ablation overrides it per mode
)


def test_reward_shaping_ablation(benchmark, record_table):
    result = benchmark.pedantic(
        lambda: run_experiment("reward_ablation", {"config": ABLATION_CONFIG}),
        rounds=1,
        iterations=1,
    )
    record_table("ablation_reward", result.table())

    by_mode = {mode: evaluated for mode, _, evaluated in result.rows}
    # Both reward formulations find the equilibrium utility (within 2%).
    for mode, evaluated in by_mode.items():
        assert evaluated == pytest.approx(
            result.equilibrium_utility, rel=0.02
        ), f"reward mode {mode!r} failed to converge"


def test_history_length_ablation(benchmark, record_table):
    result = benchmark.pedantic(
        lambda: run_experiment(
            "history_ablation",
            {"config": ABLATION_CONFIG, "lengths": (1, 2, 4, 8)},
        ),
        rounds=1,
        iterations=1,
    )
    record_table("ablation_history", result.table())

    for length, _, evaluated in result.rows:
        assert evaluated == pytest.approx(
            result.equilibrium_utility, rel=0.03
        ), f"history length {length} failed to converge"
