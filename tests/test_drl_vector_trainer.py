"""VectorTrainer tests: batched Algorithm 1 over an env batch.

The key regression: an E = 1 vector run is bit-compatible with the scalar
oracle ``Trainer`` (``tests/training_oracle.py``) on the same seeds — same
RNG consumption order, same pooled sampling — so the one production
trainer reproduces the paper's single-env loop exactly.
"""

import numpy as np
import pytest

from training_oracle import (
    MigrationGameEnv,
    Trainer,
    concatenate_minibatches,
    train_reference,
)

from repro.core.stackelberg import StackelbergMarket
from repro.drl.buffer import MiniBatch, sample_minibatch
from repro.drl.policy import ActionScaler, ActorCritic
from repro.drl.ppo import PPOAgent, PPOConfig
from repro.drl.trainer import TrainerConfig, VectorTrainer, train_pricing_agent
from repro.entities.vmu import paper_fig2_population
from repro.env import VectorMigrationEnv
from repro.errors import ConfigurationError


@pytest.fixture
def market():
    return StackelbergMarket(paper_fig2_population())


SMOKE = TrainerConfig(
    num_episodes=3,
    update_interval=5,
    update_epochs=2,
    batch_size=5,
    gamma=0.0,
)

ENV_KWARGS = dict(history_length=2, rounds_per_episode=10, reward_mode="utility")


class TestSingleEnvBitCompatibility:
    def test_vector_trainer_matches_scalar_trainer(self, market):
        """E = 1: every trace and every update statistic must be identical
        to the scalar oracle Trainer driving the autograd agent, bit for bit."""
        env = MigrationGameEnv(market, seed=0, **ENV_KWARGS)
        _, scalar_result, _ = train_reference(
            env, trainer_config=SMOKE, ppo_config=PPOConfig(learning_rate=1e-3), seed=11
        )
        venv = VectorMigrationEnv.from_market(market, 1, seed=0, **ENV_KWARGS)
        _, vector_result, _ = train_pricing_agent(
            venv, trainer_config=SMOKE, ppo_config=PPOConfig(learning_rate=1e-3), seed=11
        )
        assert vector_result.episode_returns == scalar_result.episode_returns
        assert (
            vector_result.episode_best_utilities
            == scalar_result.episode_best_utilities
        )
        assert (
            vector_result.episode_mean_utilities
            == scalar_result.episode_mean_utilities
        )
        assert (
            vector_result.episode_final_prices == scalar_result.episode_final_prices
        )
        assert vector_result.update_stats == scalar_result.update_stats

    def test_dispatch_picks_trainer_by_env_type(self, market):
        """Only vector envs train in production; the scalar loop survives
        as the oracle Trainer."""
        env = MigrationGameEnv(market, seed=0, **ENV_KWARGS)
        venv = VectorMigrationEnv.from_market(market, 1, seed=0, **ENV_KWARGS)
        network = ActorCritic(env.observation_dim, (8,), seed=0)
        agent = PPOAgent(network, PPOConfig(learning_rate=1e-3))
        scaler = ActionScaler(env.action_low, env.action_high)
        assert isinstance(Trainer(env, agent, scaler, SMOKE, seed=0), Trainer)
        assert isinstance(
            VectorTrainer(venv, agent, scaler, SMOKE, seed=0), VectorTrainer
        )
        with pytest.raises(ConfigurationError):
            VectorTrainer(env, agent, scaler, SMOKE, seed=0)


def test_fig2_smoke_training_fused_matches_reference(market):
    """E = 2: the production agent (flat Adam + graph-free update) against
    the autograd oracle agent, both driven by the one VectorTrainer —
    identical traces, update statistics, and final parameters, bit for bit."""

    def train(trainer):
        venv = VectorMigrationEnv.from_market(market, 2, seed=0, **ENV_KWARGS)
        return trainer(
            venv,
            trainer_config=SMOKE,
            ppo_config=PPOConfig(learning_rate=1e-3, entropy_coef=0.01),
            seed=11,
        )

    agent_a, result_a, _ = train(train_pricing_agent)
    agent_b, result_b, _ = train(train_reference)
    assert result_a.episode_returns == result_b.episode_returns
    assert result_a.episode_best_utilities == result_b.episode_best_utilities
    assert result_a.episode_mean_utilities == result_b.episode_mean_utilities
    assert result_a.episode_final_prices == result_b.episode_final_prices
    assert result_a.update_stats == result_b.update_stats
    state_a, state_b = agent_a.network.state_dict(), agent_b.network.state_dict()
    assert list(state_a) == list(state_b)
    for name, value in state_b.items():
        np.testing.assert_array_equal(state_a[name], value, err_msg=name)


class TestConcurrentCollection:
    def test_collects_e_episodes_per_iteration(self, market):
        venv = VectorMigrationEnv.from_market(market, 4, seed=0, **ENV_KWARGS)
        _, result, _ = train_pricing_agent(
            venv, trainer_config=SMOKE, ppo_config=PPOConfig(learning_rate=1e-3), seed=11
        )
        assert result.num_episodes == SMOKE.num_episodes * 4
        assert len(result.episode_final_prices) == SMOKE.num_episodes * 4
        # 10 rounds / interval 5 → 2 update triggers × 2 epochs × 3 iterations,
        # independent of E (segments are pooled, not iterated per env).
        assert len(result.update_stats) == 12

    def test_mean_utilities_reduce_each_envs_own_row(self, market):
        """Each env's episode mean is np.mean over that env's K utilities
        (the scalar loop's reduction), not a column of a (K, E) mean,
        which sums naively once K > 8 and can change the bits."""

        class Recording(VectorMigrationEnv):
            def step(self, actions):
                step = super().step(actions)
                self.rounds.append(step[3]["msp_utility"].tolist())
                return step

        E, K = 4, 30
        kwargs = dict(ENV_KWARGS, rounds_per_episode=K)
        venv = Recording.from_markets([market] * E, seed=0, **kwargs)
        venv.rounds = []
        config = TrainerConfig(
            num_episodes=2, update_interval=10, update_epochs=1, batch_size=5
        )
        _, result, _ = train_pricing_agent(
            venv, trainer_config=config, ppo_config=PPOConfig(), seed=3
        )
        expected = []
        for episode in range(config.num_episodes):
            rows = venv.rounds[episode * K : (episode + 1) * K]
            expected += [float(np.mean([row[e] for row in rows])) for e in range(E)]
        assert result.episode_mean_utilities == expected

    def test_prices_feasible(self, market):
        venv = VectorMigrationEnv.from_market(market, 3, seed=0, **ENV_KWARGS)
        _, result, _ = train_pricing_agent(
            venv, trainer_config=SMOKE, ppo_config=PPOConfig(learning_rate=1e-3), seed=11
        )
        assert all(5.0 <= p <= 50.0 for p in result.episode_final_prices)

    def test_deterministic_given_seeds(self, market):
        def run():
            venv = VectorMigrationEnv.from_market(market, 3, seed=5, **ENV_KWARGS)
            _, result, _ = train_pricing_agent(
                venv,
                trainer_config=SMOKE,
                ppo_config=PPOConfig(learning_rate=1e-3),
                seed=11,
            )
            return result.episode_returns

        assert run() == run()


class TestBatchedActPaths:
    def test_act_batch_first_row_matches_act(self, market):
        env = MigrationGameEnv(market, seed=0, **ENV_KWARGS)
        network = ActorCritic(env.observation_dim, (8,), seed=3)
        observation = env.reset()
        raw_a, logp_a, value_a = network.act(
            observation, seed=np.random.default_rng(9)
        )
        raws, logps, values = network.act_batch(
            observation.reshape(1, -1), seed=np.random.default_rng(9)
        )
        assert (raws[0] == raw_a).all()
        assert logps[0] == logp_a
        assert values[0] == value_a

    def test_act_batch_rejects_bad_shapes(self, market):
        env = MigrationGameEnv(market, seed=0, **ENV_KWARGS)
        network = ActorCritic(env.observation_dim, (8,), seed=3)
        with pytest.raises(ConfigurationError):
            network.act_batch(np.zeros(env.observation_dim))

    def test_value_batch_matches_value(self, market):
        env = MigrationGameEnv(market, seed=0, **ENV_KWARGS)
        network = ActorCritic(env.observation_dim, (8,), seed=3)
        agent = PPOAgent(network, PPOConfig(learning_rate=1e-3))
        observation = env.reset()
        # A one-row batch is the bit-compat contract (same shapes, same
        # BLAS kernel); wider batches may differ in the last ulp.
        assert agent.value_batch(observation.reshape(1, -1))[0] == agent.value(
            observation
        )
        batch = np.stack([observation, observation * 0.5])
        values = agent.value_batch(batch)
        assert values.shape == (2,)
        assert values[0] == pytest.approx(agent.value(observation), rel=1e-12)


class TestBufferPooling:
    def _batch(self, offset):
        return MiniBatch(
            observations=np.full((4, 2), float(offset)),
            actions=np.full((4, 1), float(offset)),
            old_log_probs=np.arange(4.0) + offset,
            advantages=np.arange(4.0) + offset,
            returns=np.arange(4.0) + offset,
        )

    def test_concatenate_pools_along_batch_axis(self):
        pool = concatenate_minibatches([self._batch(0), self._batch(10)])
        assert pool.observations.shape == (8, 2)
        assert pool.old_log_probs[4] == 10.0

    def test_concatenate_single_is_identity(self):
        batch = self._batch(0)
        assert concatenate_minibatches([batch]) is batch

    def test_concatenate_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            concatenate_minibatches([])

    def test_sample_minibatch_draws_from_pool(self):
        pool = concatenate_minibatches([self._batch(0), self._batch(10)])
        sampled = sample_minibatch(pool, 3, seed=0)
        assert sampled.observations.shape == (3, 2)
        for row in sampled.old_log_probs:
            assert row in pool.old_log_probs
