"""Semantics of the stochastic-game experiments.

The generic spec contract (in-process == pooled == queued bitwise,
payload codec)
is covered by ``test_experiments_api.py``; here we pin what the numbers
*mean*: oracle regret is non-negative and vanishes on a point mass, PoA
brackets efficiency against the planner, and the CLI fan-out resumes
both experiments from the job cache.
"""

import json

import pytest

from repro.experiments import get_experiment, run_experiment
from repro.experiments.run import main


class TestBayesianPricing:
    def test_regret_nonnegative_and_oracle_dominates(self):
        result = run_experiment(
            "bayesian_pricing", {"num_scenarios": 5, "seed": 3}
        )
        assert result.expected_regret >= 0.0
        assert result.expected_oracle_utility >= result.expected_utility
        assert len(result.scenario_prices) == 5
        assert len(result.weights) == 5
        # Per-scenario oracle beats the one-price robust policy pointwise.
        for oracle, robust in zip(
            result.scenario_oracle_utilities, result.scenario_robust_utilities
        ):
            assert oracle >= robust - 1e-9

    def test_point_mass_has_zero_regret(self):
        """One scenario: the robust price IS the oracle price."""
        result = run_experiment(
            "bayesian_pricing",
            {
                "num_scenarios": 1,
                "seed": 0,
                "alpha_jitter": 0.0,
                "data_jitter": 0.0,
            },
        )
        assert result.expected_regret == 0.0
        assert result.robust_price == result.scenario_prices[0]

    def test_table_renders(self):
        result = run_experiment(
            "bayesian_pricing", {"num_scenarios": 2, "seed": 1}
        )
        text = str(result.table())
        assert "robust" in text.lower()
        assert str(result.num_scenarios)


class TestPriceOfAnarchy:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(
            "price_of_anarchy", {"ns": (1, 2, 4), "max_iterations": 60}
        )

    def test_rows_align_with_ns(self, result):
        assert result.ns == [1, 2, 4]
        for field in (
            result.prices,
            result.welfares,
            result.efficiencies,
            result.poa,
            result.converged,
            result.iterations,
            result.cycle_lengths,
        ):
            assert len(field) == 3

    def test_poa_is_planner_over_welfare(self, result):
        for poa, efficiency, welfare in zip(
            result.poa, result.efficiencies, result.welfares
        ):
            assert poa == result.planner_welfare / welfare
            assert efficiency == welfare / result.planner_welfare
            assert poa >= 1.0 - 1e-9  # planner is the welfare optimum

    def test_welfare_decomposes(self, result):
        for profit, surplus, welfare in zip(
            result.msp_profits, result.vmu_surpluses, result.welfares
        ):
            assert welfare == profit + surplus

    def test_monopoly_cell_tracks_welfare_baseline(self, result):
        """The N=1 cell and the welfare report's monopoly row describe the
        same market, up to the oligopoly game's price lattice."""
        assert result.prices[0] == pytest.approx(result.monopoly_price, abs=0.1)
        assert result.welfares[0] == pytest.approx(
            result.monopoly_welfare, rel=0.01
        )

    def test_table_renders(self, result):
        text = str(result.table())
        assert "PoA" in text
        assert "planner" in text


class TestCliFanOut:
    def test_bayesian_pricing_cache_resume(self, tmp_path, capsys):
        argv = [
            "run", "bayesian_pricing",
            "--param", "num_scenarios=2",
            "--param", "seed=5",
            "--workers", "1",
            "--resume",
            "--queue-dir", str(tmp_path / "queue"),
            "--output", str(tmp_path / "out"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 job(s) executed, 0 from cache" in out
        assert main(argv) == 0
        assert "0 job(s) executed, 1 from cache" in capsys.readouterr().out
        payload = json.loads(
            (tmp_path / "out" / "bayesian_pricing.json").read_text()
        )
        result = get_experiment("bayesian_pricing").result_from_payload(payload)
        assert result.num_scenarios == 2

    def test_price_of_anarchy_jobs_fan_out(self, tmp_path, capsys):
        argv = [
            "run", "price_of_anarchy",
            "--param", "ns=1,2",
            "--param", "max_iterations=40",
            "--workers", "2",
            "--resume",
            "--queue-dir", str(tmp_path / "queue"),
            "--output", str(tmp_path / "out"),
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        # One welfare-baseline job plus one oligopoly cell per N.
        assert "3 job(s) executed, 0 from cache" in out
        assert main(argv) == 0
        assert "0 job(s) executed, 3 from cache" in capsys.readouterr().out
