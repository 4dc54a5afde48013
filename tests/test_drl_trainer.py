"""Algorithm-1 trainer tests: plumbing on smoke budgets, traces, configs.

Every run uses a one-env :class:`VectorMigrationEnv` — the paper's scalar
training loop, driven through the one production trainer.
"""

import numpy as np
import pytest

from training_oracle import MigrationGameEnv

from repro.core.stackelberg import StackelbergMarket
from repro.drl.policy import ActionScaler, ActorCritic
from repro.drl.ppo import PPOAgent, PPOConfig
from repro.drl.trainer import TrainerConfig, VectorTrainer, train_pricing_agent
from repro.entities.vmu import paper_fig2_population
from repro.env import VectorMigrationEnv
from repro.errors import ConfigurationError

ENV_KWARGS = dict(history_length=2, rounds_per_episode=10, reward_mode="utility")


def one_env(market):
    return VectorMigrationEnv.from_market(market, 1, seed=0, **ENV_KWARGS)


@pytest.fixture
def env():
    return one_env(StackelbergMarket(paper_fig2_population()))


SMOKE = TrainerConfig(
    num_episodes=3,
    update_interval=5,
    update_epochs=2,
    batch_size=5,
    gamma=0.0,
)


class TestTrainer:
    def test_traces_have_episode_length(self, env):
        agent, result, scaler = train_pricing_agent(
            env, trainer_config=SMOKE, ppo_config=PPOConfig(learning_rate=1e-3), seed=0
        )
        assert result.num_episodes == 3
        assert len(result.episode_best_utilities) == 3
        assert len(result.episode_mean_utilities) == 3
        assert len(result.episode_final_prices) == 3

    def test_updates_happen(self, env):
        _, result, _ = train_pricing_agent(
            env, trainer_config=SMOKE, ppo_config=PPOConfig(learning_rate=1e-3), seed=0
        )
        # 10 rounds per episode / 5-round interval * 2 epochs * 3 episodes.
        assert len(result.update_stats) == 12

    def test_prices_feasible(self, env):
        _, result, scaler = train_pricing_agent(
            env, trainer_config=SMOKE, ppo_config=PPOConfig(learning_rate=1e-3), seed=0
        )
        assert all(5.0 <= p <= 50.0 for p in result.episode_final_prices)

    def test_deterministic_given_seed(self, env):
        market = StackelbergMarket(paper_fig2_population())

        def run():
            _, result, _ = train_pricing_agent(
                one_env(market),
                trainer_config=SMOKE,
                ppo_config=PPOConfig(learning_rate=1e-3),
                seed=11,
            )
            return result.episode_returns

        assert run() == run()

    def test_tail_mean_best_utility(self, env):
        _, result, _ = train_pricing_agent(
            env, trainer_config=SMOKE, ppo_config=PPOConfig(learning_rate=1e-3), seed=0
        )
        tail = result.tail_mean_best_utility(1.0)
        assert tail == pytest.approx(np.mean(result.episode_best_utilities))
        with pytest.raises(ConfigurationError):
            result.tail_mean_best_utility(0.0)

    def test_manual_trainer_wiring(self, env):
        network = ActorCritic(env.observation_dim, (8,), seed=0)
        agent = PPOAgent(network, PPOConfig(learning_rate=1e-3))
        scaler = ActionScaler(env.action_low, env.action_high)
        trainer = VectorTrainer(env, agent, scaler, SMOKE, seed=0)
        result = trainer.train()
        assert result.num_episodes == 3
        (price,) = trainer.evaluate_prices()
        assert 5.0 <= price <= 50.0

    def test_scalar_env_rejected(self):
        """Training runs through VectorTrainer only; a bare scalar env has
        no num_envs and is refused up front."""
        scalar = MigrationGameEnv(
            StackelbergMarket(paper_fig2_population()), seed=0, **ENV_KWARGS
        )
        with pytest.raises(ConfigurationError, match="num_envs"):
            train_pricing_agent(
                scalar,
                trainer_config=SMOKE,
                ppo_config=PPOConfig(learning_rate=1e-3),
                seed=0,
            )

    def test_invalid_trainer_config(self):
        with pytest.raises(ConfigurationError):
            TrainerConfig(num_episodes=0)
        with pytest.raises(ConfigurationError):
            TrainerConfig(gamma=1.5)
        with pytest.raises(ConfigurationError):
            TrainerConfig(batch_size=0)
