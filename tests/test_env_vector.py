"""VectorMigrationEnv tests: exact-trace parity with sequential oracle envs.

The env is array-native — one step path over one ``E``-row market stack —
and must reproduce, bit for bit, the traces of ``E`` sequential scalar
``MigrationGameEnv`` runs (``tests/training_oracle.py``) with the same
seeds: observations, rewards, dones and every info field, for shared and
heterogeneous fleets, in both reward modes, across episode boundaries.
"""

import numpy as np
import pytest

from training_oracle import MigrationGameEnv

from repro.core.stackelberg import MarketConfig, StackelbergMarket
from repro.entities.vmu import paper_fig2_population, uniform_population
from repro.env import VectorMigrationEnv
from repro.errors import ConfigurationError, EnvironmentError_


@pytest.fixture
def market():
    return StackelbergMarket(paper_fig2_population())


def heterogeneous_markets():
    """Costs, caps, links, population parameters and capacity enforcement
    all varied; one population size (one observation layout)."""
    base = StackelbergMarket(paper_fig2_population())
    return [
        base.with_unit_cost(5.0),
        base.with_unit_cost(7.5),
        StackelbergMarket(
            uniform_population(2, data_size_mb=150.0, immersion_coef=6.0),
            config=MarketConfig(unit_cost=4.0, max_bandwidth=20.0),
        ),
        StackelbergMarket(
            paper_fig2_population(),
            config=MarketConfig(enforce_capacity=False),
        ),
    ]


def assert_bitwise(actual, expected, what):
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    assert actual.shape == expected.shape, what
    assert actual.dtype == expected.dtype, what
    assert actual.tobytes() == expected.tobytes(), what


def assert_round_matches(step, oracle_steps):
    """One vector step equals the E oracle envs' steps, field by field."""
    observations, rewards, dones, infos = step
    expected_obs, expected_rewards, expected_dones, expected_infos = zip(
        *oracle_steps
    )
    assert_bitwise(observations, np.stack(expected_obs), "observations")
    assert_bitwise(rewards, np.array(expected_rewards, dtype=float), "rewards")
    assert_bitwise(dones, np.array(expected_dones, dtype=bool), "dones")
    assert set(infos) == set(expected_infos[0])
    for key in infos:
        expected = np.array([info[key] for info in expected_infos])
        assert_bitwise(infos[key], expected, key)


class TestExactTraceParity:
    @pytest.mark.parametrize("num_envs", [1, 2, 4])
    @pytest.mark.parametrize("reward_mode", ["paper", "utility"])
    @pytest.mark.parametrize("fleet", ["shared", "heterogeneous"])
    def test_every_field_matches_sequential_oracles(
        self, market, num_envs, reward_mode, fleet
    ):
        """Two full episodes with a reset between them, plus a third reset:
        observations, rewards, dones and every info field stay bitwise
        equal to E oracle envs stepped one at a time."""
        K = 6
        markets = (
            [market] * num_envs
            if fleet == "shared"
            else heterogeneous_markets()[:num_envs]
        )
        seeds = [11 + e for e in range(num_envs)]
        kwargs = dict(
            history_length=3, rounds_per_episode=K, reward_mode=reward_mode
        )
        oracles = [
            MigrationGameEnv(m, seed=s, **kwargs) for m, s in zip(markets, seeds)
        ]
        venv = VectorMigrationEnv.from_markets(markets, seeds=seeds, **kwargs)
        rng = np.random.default_rng(num_envs)
        # Out-of-range actions included, so the per-env clamp is pinned too.
        actions = rng.uniform(1.0, 60.0, size=(2, K, num_envs))
        for episode in range(2):
            assert_bitwise(
                venv.reset(), np.stack([env.reset() for env in oracles]), "reset"
            )
            for k in range(K):
                step = venv.step(actions[episode, k])
                assert_round_matches(
                    step,
                    [
                        env.step(float(a))
                        for env, a in zip(oracles, actions[episode, k])
                    ],
                )
        assert_bitwise(
            venv.reset(), np.stack([env.reset() for env in oracles]), "reset"
        )

    def test_vector_env_matches_sequential_runs(self, market):
        """Acceptance: E single-seed envs in the vector env reproduce the
        exact utility/reward/observation traces of E sequential runs."""
        E, K = 5, 20
        seeds = [3, 14, 15, 92, 65]
        kwargs = dict(history_length=3, rounds_per_episode=K)
        rng = np.random.default_rng(0)
        actions = rng.uniform(5.0, 50.0, size=(K, E))

        oracles = [MigrationGameEnv(market, seed=s, **kwargs) for s in seeds]
        venv = VectorMigrationEnv.from_market(market, E, seeds=seeds, **kwargs)
        for env in oracles:
            env.reset()
        venv.reset()
        for k in range(K):
            assert_round_matches(
                venv.step(actions[k]),
                [env.step(float(a)) for env, a in zip(oracles, actions[k])],
            )

    def test_parity_across_full_episodes_and_reset(self, market):
        """Two full episodes (reset between them) stay in lockstep too —
        the per-env RNG streams must advance identically."""
        E, K = 3, 8
        seeds = [0, 1, 2]
        kwargs = dict(history_length=2, rounds_per_episode=K, reward_mode="utility")
        rng = np.random.default_rng(42)
        actions = rng.uniform(5.0, 50.0, size=(2 * K, E))

        envs = [MigrationGameEnv(market, seed=s, **kwargs) for s in seeds]
        venv = VectorMigrationEnv.from_market(market, E, seeds=seeds, **kwargs)
        for episode in range(2):
            expected_obs = np.stack([env.reset() for env in envs])
            assert (venv.reset() == expected_obs).all()
            for k in range(K):
                step = episode * K + k
                observations, rewards, _, _ = venv.step(actions[step])
                for e, env in enumerate(envs):
                    obs, reward, _, _ = env.step(float(actions[step][e]))
                    assert (observations[e] == obs).all()
                    assert rewards[e] == reward

    def test_mixed_markets_batch_solve_each_envs_own_outcome(self):
        """Different member markets batch-solve through one MarketStack
        pass; each env must still receive its own market's outcome."""
        market_a = StackelbergMarket(paper_fig2_population())
        market_b = StackelbergMarket(
            uniform_population(2, data_size_mb=120.0, immersion_coef=4.0)
        )
        kwargs = dict(history_length=2, rounds_per_episode=5)
        venv = VectorMigrationEnv.from_markets(
            [market_a, market_b], seeds=[0, 1], **kwargs
        )
        ref_a = MigrationGameEnv(market_a, seed=0, **kwargs)
        ref_b = MigrationGameEnv(market_b, seed=1, **kwargs)
        ref_a.reset()
        ref_b.reset()
        venv.reset()
        _, rewards, _, infos = venv.step(np.array([20.0, 20.0]))
        _, r_a, _, info_a = ref_a.step(20.0)
        _, r_b, _, info_b = ref_b.step(20.0)
        assert rewards[0] == r_a and rewards[1] == r_b
        assert infos["msp_utility"][0] == info_a["msp_utility"]
        assert infos["msp_utility"][1] == info_b["msp_utility"]
        assert infos["msp_utility"][0] != infos["msp_utility"][1]

    def test_heterogeneous_fleet_matches_sequential_runs_bitwise(self):
        """Acceptance: a fleet of envs over *different* markets (costs,
        caps, populations' parameters all varied) reproduces the exact
        traces of sequential single-env runs — the batched stacked solve
        changes nothing, bit for bit."""
        markets = heterogeneous_markets()
        E, K = len(markets), 15
        seeds = [21, 22, 23, 24]
        kwargs = dict(history_length=3, rounds_per_episode=K)
        rng = np.random.default_rng(77)
        actions = rng.uniform(4.0, 55.0, size=(K, E))

        refs = [
            MigrationGameEnv(market, seed=seed, **kwargs)
            for market, seed in zip(markets, seeds)
        ]
        venv = VectorMigrationEnv.from_markets(markets, seeds=seeds, **kwargs)
        expected_obs = np.stack([ref.reset() for ref in refs])
        assert (venv.reset() == expected_obs).all()
        for k in range(K):
            assert_round_matches(
                venv.step(actions[k]),
                [ref.step(float(a)) for ref, a in zip(refs, actions[k])],
            )

    def test_equilibria_match_each_market(self, market):
        """equilibria() is one stacked solve of the env's own stack; a
        shared market repeated E times gives E copies of its equilibrium."""
        shared = VectorMigrationEnv.from_market(market, 3, seed=0)
        reference = market.equilibrium()
        solved = shared.equilibria()
        assert len(solved) == 3 and len({id(eq) for eq in solved}) == 3
        for equilibrium in solved:
            assert equilibrium.price == reference.price
            assert equilibrium.msp_utility == reference.msp_utility
        fleet = heterogeneous_markets()
        venv = VectorMigrationEnv.from_markets(fleet, seed=0)
        for member, equilibrium in zip(fleet, venv.equilibria()):
            assert equilibrium.price == member.equilibrium().price


class TestNonFiniteActions:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("fleet", ["single", "shared", "heterogeneous"])
    def test_rejected_before_solving(self, market, fleet, bad):
        """Every fleet shape rejects a non-finite action with a typed
        error, and the rejected step leaves the episode untouched."""
        markets = {
            "single": [market],
            "shared": [market] * 3,
            "heterogeneous": [market, market.with_unit_cost(9.0)],
        }[fleet]
        venv = VectorMigrationEnv.from_markets(
            markets, seed=0, history_length=2, rounds_per_episode=3
        )
        observations = venv.reset().copy()
        actions = np.full(len(markets), 20.0)
        actions[-1] = bad
        with pytest.raises(ConfigurationError, match="finite"):
            venv.step(actions)
        with pytest.raises(ConfigurationError, match="finite"):
            venv.step(np.full(len(markets), bad))
        reference = VectorMigrationEnv.from_markets(
            markets, seed=0, history_length=2, rounds_per_episode=3
        )
        assert (reference.reset() == observations).all()
        step, expected = venv.step(20.0), reference.step(20.0)
        for name, got, want in zip(("obs", "rewards", "dones"), step, expected):
            assert_bitwise(got, want, name)
        for key, want in expected[3].items():
            assert_bitwise(step[3][key], want, key)
        assert (step[3]["round"] == 1).all()


class TestVectorEnvApi:
    def test_from_market_env0_matches_scalar_seed(self, market):
        """seed=s seeds env 0 with s itself, so env 0 matches the scalar
        env's stream (the num_envs=1 bit-compat contract)."""
        venv = VectorMigrationEnv.from_market(
            market, 2, seed=7, history_length=2, rounds_per_episode=5
        )
        scalar = MigrationGameEnv(
            market, seed=7, history_length=2, rounds_per_episode=5
        )
        assert (venv.reset()[0] == scalar.reset()).all()

    def test_from_market_adjacent_root_seeds_do_not_share_streams(self, market):
        """Regression: envs e>=1 derive from SeedSequence children, so the
        env batches of adjacent root seeds (a multiseed sweep) must not
        reuse each other's streams the way seed+e offsets would."""
        kwargs = dict(history_length=2, rounds_per_episode=5)
        batch_a = VectorMigrationEnv.from_market(market, 3, seed=0, **kwargs).reset()
        batch_b = VectorMigrationEnv.from_market(market, 3, seed=1, **kwargs).reset()
        for row_a in batch_a:
            for row_b in batch_b:
                assert not (row_a == row_b).all()

    def test_from_markets_env0_matches_scalar_seed(self, market):
        """from_markets keeps from_market's RNG-stream contract: env 0 on
        the root seed itself, envs >= 1 on SeedSequence children."""
        fleet = [market.with_unit_cost(c) for c in (5.0, 6.0, 7.0)]
        venv = VectorMigrationEnv.from_markets(
            fleet, seed=7, history_length=2, rounds_per_episode=5
        )
        scalar = MigrationGameEnv(
            fleet[0], seed=7, history_length=2, rounds_per_episode=5
        )
        assert venv.num_envs == 3
        assert (venv.reset()[0] == scalar.reset()).all()

    def test_heterogeneous_fleet_reports_price_envelope(self, market):
        fleet = [market.with_unit_cost(c) for c in (5.0, 8.0)]
        venv = VectorMigrationEnv.from_markets(
            fleet, seed=0, history_length=2, rounds_per_episode=5
        )
        assert venv.action_low == 5.0
        assert venv.action_high == market.config.max_price

    def test_scalar_action_broadcasts(self, market):
        venv = VectorMigrationEnv.from_market(
            market, 3, seed=0, history_length=2, rounds_per_episode=5
        )
        venv.reset()
        observations, rewards, dones, infos = venv.step(20.0)
        assert observations.shape == (3, venv.observation_dim)
        assert rewards.shape == (3,)
        assert infos["price"].shape == (3,)
        assert infos["allocations"].shape == (3, market.num_vmus)
        assert (infos["price"] == 20.0).all()

    def test_properties_mirror_members(self, market):
        venv = VectorMigrationEnv.from_market(
            market, 2, seed=0, history_length=2, rounds_per_episode=5
        )
        oracle = MigrationGameEnv(market, history_length=2, rounds_per_episode=5)
        assert venv.num_envs == 2
        assert venv.observation_dim == oracle.observation_dim
        assert venv.rounds_per_episode == 5
        assert venv.action_low == market.config.unit_cost
        assert venv.action_high == market.config.max_price

    def test_done_after_episode_and_step_past_end_rejected(self, market):
        venv = VectorMigrationEnv.from_market(
            market, 2, seed=0, history_length=2, rounds_per_episode=2
        )
        venv.reset()
        _, _, dones, _ = venv.step(20.0)
        assert not dones.any()
        _, _, dones, _ = venv.step(20.0)
        assert dones.all()
        with pytest.raises(EnvironmentError_):
            venv.step(20.0)

    def test_step_before_reset_rejected(self, market):
        venv = VectorMigrationEnv.from_market(
            market, 2, seed=0, history_length=2, rounds_per_episode=2
        )
        with pytest.raises(EnvironmentError_):
            venv.step(20.0)

    def test_validation(self, market):
        with pytest.raises(EnvironmentError_):
            VectorMigrationEnv([])
        with pytest.raises(EnvironmentError_):
            VectorMigrationEnv.from_market(market, 0)
        with pytest.raises(EnvironmentError_):
            VectorMigrationEnv.from_market(market, 2, seeds=[1])
        with pytest.raises(EnvironmentError_):
            VectorMigrationEnv.from_markets([])
        with pytest.raises(EnvironmentError_):
            VectorMigrationEnv.from_markets([market, market], seeds=[1])
        # One observation layout: every market must share N.
        with pytest.raises(EnvironmentError_, match="population size"):
            VectorMigrationEnv.from_markets(
                [market, market.with_vmus(uniform_population(3))], seed=0
            )
