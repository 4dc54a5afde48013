"""Experiment-harness tests: configs, runners, per-figure structure.

DRL runs here use the smoke budget: these tests check plumbing and table
structure. Quality (equilibrium convergence, scheme ordering) is covered
by the integration test and the benchmarks.
"""

import pytest

from repro.core.stackelberg import StackelbergMarket
from repro.entities.vmu import paper_fig2_population
from repro.errors import ConfigurationError
from repro.experiments import (
    ExperimentConfig,
    compare_schemes_stacked,
    evaluate_policies_stacked,
    run_experiment,
    train_drl,
)
from repro.baselines import OraclePricing
from repro.experiments.run import main


@pytest.fixture
def market():
    return StackelbergMarket(paper_fig2_population())


SMOKE = ExperimentConfig.smoke()


class TestExperimentConfig:
    def test_paper_preset_matches_constants(self):
        config = ExperimentConfig.paper()
        assert config.num_episodes == 500
        assert config.rounds_per_episode == 100
        assert config.learning_rate == 1e-5
        assert config.history_length == 4

    def test_quick_preset_is_bandit(self):
        config = ExperimentConfig.quick()
        assert config.gamma == 0.0
        assert config.reward_mode == "utility"

    def test_with_methods(self):
        config = ExperimentConfig.quick().with_seed(9)
        assert config.seed == 9
        assert config.with_reward_mode("paper").reward_mode == "paper"
        assert config.with_history_length(2).history_length == 2

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(num_episodes=0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig(reward_mode="bogus")


def evaluate_one(market, policy, rounds):
    """The ``M = 1`` call of the stacked evaluator."""
    (evaluation,) = evaluate_policies_stacked([market], [policy], rounds=rounds)
    return evaluation


class TestRunner:
    def test_evaluate_oracle_matches_equilibrium(self, market):
        eq = market.equilibrium()
        evaluation = evaluate_one(market, OraclePricing(market), rounds=5)
        assert evaluation.mean_price == pytest.approx(eq.price)
        assert evaluation.mean_msp_utility == pytest.approx(eq.msp_utility)
        assert evaluation.best_msp_utility == pytest.approx(eq.msp_utility)
        assert evaluation.mean_total_vmu_utility == pytest.approx(
            eq.total_vmu_utility
        )

    def test_train_drl_smoke(self, market):
        trained = train_drl(market, SMOKE)
        assert trained.training.num_episodes == SMOKE.num_episodes
        evaluation = evaluate_one(market, trained.policy, rounds=5)
        assert 5.0 <= evaluation.mean_price <= 50.0

    def test_compare_schemes_keys(self, market):
        (results,) = compare_schemes_stacked(
            [market], SMOKE, schemes=("random", "equilibrium")
        )
        assert list(results) == ["random", "equilibrium"]

    def test_compare_unknown_scheme(self, market):
        with pytest.raises(ValueError):
            compare_schemes_stacked([market], SMOKE, schemes=("alien",))

    def test_compare_schemes_stacked_equals_per_market(self, market):
        """Each row of a multi-market comparison equals the M = 1 call on
        that market, field for field."""
        schemes = ("random", "greedy", "equilibrium")
        markets = [market.with_unit_cost(c) for c in (5.0, 7.0, 9.0)]
        stacked = compare_schemes_stacked(markets, SMOKE, schemes=schemes)
        assert len(stacked) == 3
        for m, one_market in enumerate(markets):
            (solo,) = compare_schemes_stacked(
                [one_market], SMOKE, schemes=schemes
            )
            assert list(stacked[m]) == list(solo) == list(schemes)
            for scheme, evaluation in solo.items():
                assert vars(stacked[m][scheme]) == vars(evaluation)


class TestFig2:
    def test_series_lengths_and_table(self):
        result = run_experiment("fig2", {"config": SMOKE})
        assert len(result.episode_returns) == SMOKE.num_episodes
        assert len(result.episode_best_utilities) == SMOKE.num_episodes
        table = result.table()
        assert "Fig. 2" in str(table)
        assert result.equilibrium_price == pytest.approx(25.34, abs=0.01)

    def test_convergence_properties_well_defined(self):
        result = run_experiment("fig2", {"config": SMOKE})
        assert result.converged_return >= 0.0
        assert result.utility_gap >= 0.0


class TestFig3Cost:
    def test_structure(self):
        result = run_experiment(
            "fig3_cost",
            {
                "config": SMOKE,
                "costs": (5.0, 9.0),
                "schemes": ("random", "equilibrium"),
            },
        )
        assert result.costs == (5.0, 9.0)
        msp = result.msp_table()
        assert len(msp) == 2
        assert "equilibrium_price" in msp.headers
        vmu = result.vmu_table()
        assert "equilibrium_bandwidth" in vmu.headers

    def test_equilibrium_series_matches_analytic(self):
        result = run_experiment(
            "fig3_cost",
            {"config": SMOKE, "costs": (5.0, 9.0), "schemes": ("equilibrium",)},
        )
        prices = result.series("equilibrium", "mean_price")
        assert prices[0] == pytest.approx(25.34, abs=0.01)
        assert prices[1] == pytest.approx(34.0, abs=0.01)


class TestFig3Vmus:
    def test_structure(self):
        result = run_experiment(
            "fig3_vmus",
            {"config": SMOKE, "counts": (2, 6), "schemes": ("equilibrium",)},
        )
        assert result.counts == (2, 6)
        utilities = result.series("equilibrium", "mean_msp_utility")
        assert utilities[0] == pytest.approx(7.03, abs=0.02)
        assert utilities[1] == pytest.approx(20.35, abs=0.1)

    def test_tables_render(self):
        result = run_experiment(
            "fig3_vmus",
            {"config": SMOKE, "counts": (2,), "schemes": ("equilibrium",)},
        )
        assert "Fig. 3(c)" in str(result.msp_table())
        assert "Fig. 3(d)" in str(result.vmu_table())


class TestAblations:
    def test_reward_ablation_rows(self):
        result = run_experiment(
            "reward_ablation", {"config": SMOKE, "modes": ("utility",)}
        )
        assert len(result.rows) == 1
        mode, trained, evaluated = result.rows[0]
        assert mode == "utility"
        assert "E7" in str(result.table())

    def test_history_ablation_rows(self):
        result = run_experiment(
            "history_ablation", {"config": SMOKE, "lengths": (1, 2)}
        )
        assert [row[0] for row in result.rows] == [1, 2]
        assert "E8" in str(result.table())


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2", "fig3_cost", "fig3_vmus", "reward_ablation"):
            assert name in out

    def test_welfare_figure_runs(self, capsys, tmp_path):
        assert main(["run", "welfare", "--output", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "deadweight" in out
        assert (tmp_path / "welfare.json").exists()

    def test_no_figure_prints_list(self, capsys):
        """Without a subcommand the usage error lists the subcommands."""
        with pytest.raises(SystemExit) as exited:
            main([])
        assert exited.value.code == 2
        err = capsys.readouterr().err
        for name in ("describe", "list", "run", "schedule", "worker"):
            assert name in err

    def test_multiseed_subcommand(self, capsys, tmp_path):
        """The seeds-axis comparison runs as `run multiseed`, one greedy
        job per seed fanned over --workers."""
        assert (
            main(
                [
                    "run",
                    "multiseed",
                    "--workers",
                    "2",
                    "--param",
                    "preset=smoke",
                    "--param",
                    "seeds=0,1,2",
                    "--param",
                    "schemes=greedy,random,equilibrium",
                    "--output",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Multi-seed comparison" in out
        assert "3 job(s) executed" in out
        assert (tmp_path / "multiseed.json").exists()
