"""Environment tests: POMDP structure, Eq.-12 reward, episode lifecycle.

Run against the one production env, :class:`VectorMigrationEnv`, at
``E = 1`` — the paper's scalar POMDP.
"""

import numpy as np
import pytest

from repro.core.stackelberg import StackelbergMarket
from repro.entities.vmu import paper_fig2_population
from repro.env import VectorMigrationEnv
from repro.errors import EnvironmentError_


@pytest.fixture
def market():
    return StackelbergMarket(paper_fig2_population())


def make_env(market, **kwargs):
    defaults = dict(history_length=4, rounds_per_episode=10, seed=0)
    defaults.update(kwargs)
    return VectorMigrationEnv.from_market(market, 1, **defaults)


def step(env, price):
    """One E = 1 round as scalars: ``(obs (obs_dim,), reward, done, info)``."""
    observations, rewards, dones, infos = env.step(price)
    info = {key: value[0] for key, value in infos.items()}
    return observations[0], rewards[0], dones[0], info


class TestObservations:
    def test_observation_dim(self, market):
        env = make_env(market, history_length=4)
        # L * (1 + N) = 4 * 3.
        assert env.observation_dim == 12
        assert env.reset().shape == (1, 12)

    def test_observation_dim_scales_with_n(self, market):
        from repro.entities.vmu import uniform_population

        env = make_env(market.with_vmus(uniform_population(5)), history_length=2)
        assert env.observation_dim == 2 * 6

    def test_observations_normalised(self, market):
        env = make_env(market)
        obs = env.reset()
        assert np.all(obs >= 0.0)
        assert np.all(obs <= 1.5)  # prices/pmax <= 1, demands/capacity O(1)

    def test_reset_randomises_history(self, market):
        env = make_env(market, seed=1)
        a = env.reset().copy()
        b = env.reset()
        assert not np.array_equal(a, b)

    def test_observation_rolls_forward(self, market):
        env = make_env(market)
        first = env.reset()[0].copy()
        obs, _, _, _ = step(env, 25.0)
        entry_width = 1 + market.num_vmus
        # Newest entry is the price we just posted (normalised); the rest
        # is the previous window shifted left by one entry.
        assert obs[-entry_width] == pytest.approx(25.0 / 50.0)
        assert (obs[:-entry_width] == first[entry_width:]).all()


class TestRewards:
    def test_first_round_always_rewarded(self, market):
        env = make_env(market, reward_mode="paper")
        env.reset()
        _, reward, _, _ = step(env, 20.0)
        assert reward == 1.0  # best starts at -inf

    def test_improvement_rewarded_regression_not(self, market):
        env = make_env(market, reward_mode="paper", reward_tolerance=0.0)
        env.reset()
        eq_price = market.equilibrium().price
        step(env, 40.0)  # mediocre
        _, r_improve, _, _ = step(env, eq_price)  # optimal beats it
        _, r_worse, _, _ = step(env, 49.0)  # clearly worse than best
        assert r_improve == 1.0
        assert r_worse == 0.0

    def test_tolerance_allows_matching_best(self, market):
        env = make_env(market, reward_mode="paper", reward_tolerance=1e-3)
        env.reset()
        eq_price = market.equilibrium().price
        step(env, eq_price)
        _, reward, _, _ = step(env, eq_price + 1e-4)  # re-attains within tol
        assert reward == 1.0

    def test_utility_mode_scales(self, market):
        env = make_env(market, reward_mode="utility")
        env.reset()
        _, reward, _, info = step(env, 25.0)
        scale = (50.0 - 5.0) * market.config.capacity_natural
        assert reward == pytest.approx(info["msp_utility"] / scale)

    def test_best_utility_ratchets(self, market):
        env = make_env(market, reward_mode="paper")
        env.reset()
        _, _, _, info = step(env, 45.0)
        first_best = info["best_utility"]
        _, _, _, info = step(env, market.equilibrium().price)
        assert info["best_utility"] > first_best
        _, _, _, info = step(env, 49.0)  # a worse round keeps the best
        assert info["best_utility"] > info["msp_utility"]

    def test_invalid_reward_mode(self, market):
        with pytest.raises(EnvironmentError_):
            make_env(market, reward_mode="bogus")

    def test_negative_tolerance_rejected(self, market):
        with pytest.raises(EnvironmentError_):
            make_env(market, reward_tolerance=-0.1)
        with pytest.raises(EnvironmentError_):
            make_env(market, reward_tolerance=float("nan"))


class TestEpisodeLifecycle:
    def test_done_at_round_limit(self, market):
        env = make_env(market, rounds_per_episode=3)
        env.reset()
        dones = [bool(step(env, 25.0)[2]) for _ in range(3)]
        assert dones == [False, False, True]

    def test_step_after_done_rejected(self, market):
        env = make_env(market, rounds_per_episode=1)
        env.reset()
        step(env, 25.0)
        with pytest.raises(EnvironmentError_, match="finished"):
            step(env, 25.0)

    def test_step_before_reset_rejected(self, market):
        env = make_env(market)
        with pytest.raises(EnvironmentError_, match="reset"):
            step(env, 25.0)

    def test_reset_restores(self, market):
        env = make_env(market, rounds_per_episode=1)
        env.reset()
        step(env, 45.0)
        env.reset()
        _, reward, done, info = step(env, 45.0)  # works again
        assert info["round"] == 1 and done
        assert reward == 1.0  # the episode best restarted at -inf

    def test_action_clamped(self, market):
        env = make_env(market)
        env.reset()
        _, _, _, info = step(env, 1000.0)
        assert info["price"] == 50.0
        assert info["raw_action"] == 1000.0
        _, _, _, info = step(env, -3.0)
        assert info["price"] == 5.0

    def test_info_contents(self, market):
        env = make_env(market)
        env.reset()
        _, _, _, info = step(env, 25.0)
        assert set(info) == {
            "price",
            "raw_action",
            "msp_utility",
            "best_utility",
            "demands",
            "allocations",
            "vmu_utilities",
            "capacity_binding",
            "round",
        }
        outcome = market.round_outcome(25.0)
        assert info["msp_utility"] == outcome.msp_utility
        assert (info["allocations"] == outcome.allocations).all()
        assert info["capacity_binding"] == outcome.capacity_binding

    def test_invalid_construction(self, market):
        with pytest.raises(EnvironmentError_):
            make_env(market, history_length=0)
        with pytest.raises(EnvironmentError_):
            make_env(market, rounds_per_episode=0)
