"""Multi-seed spec tests: aggregation, payloads, and per-seed jobs."""

import pytest

from repro.core.stackelberg import StackelbergMarket
from repro.entities.vmu import paper_fig2_population
from repro.errors import ExperimentError
from repro.experiments import (
    ExperimentConfig,
    MultiSeedResult,
    execute_job,
    get_experiment,
    result_from_payload,
    result_to_payload,
    run_experiment,
    schedule,
)
from repro.experiments.runner import compare_schemes_stacked, plan_scheme_jobs
from repro.queue import QueueScheduler
from repro.utils.serialization import load_json, save_json


def multiseed(seeds, schemes=("random", "equilibrium"), scheduler=None, **params):
    """The ``multiseed`` spec on the paper market at the smoke budget."""
    return run_experiment(
        "multiseed",
        {
            "config": ExperimentConfig.smoke(),
            "seeds": seeds,
            "schemes": schemes,
            **params,
        },
        scheduler=scheduler,
    )


@pytest.fixture(scope="module")
def result():
    return multiseed((0, 1, 2))


class TestMultiSeed:
    def test_sample_counts(self, result):
        assert len(result.samples["random"]) == 3
        assert len(result.samples["equilibrium"]) == 3

    def test_equilibrium_is_seed_invariant(self, result):
        values = result.samples["equilibrium"]
        assert max(values) - min(values) < 1e-9

    def test_stats_and_table(self, result):
        stats = result.stats("random")
        assert stats.count == 3
        assert "Multi-seed" in str(result.table())

    def test_equilibrium_beats_random_significantly(self):
        comparison = multiseed((0, 1, 2, 3, 4))
        eq_mean = comparison.stats("equilibrium").mean
        rnd_mean = comparison.stats("random").mean
        assert eq_mean > rnd_mean
        assert comparison.significance("equilibrium", "random") < 0.05

    def test_needs_two_seeds(self):
        with pytest.raises(ValueError):
            multiseed((0,))

    def test_duplicate_seeds_rejected(self):
        """Duplicate seeds would silently double-count samples (same run
        twice) and shrink every CI — the runner must refuse them."""
        with pytest.raises(ValueError, match="duplicate seeds"):
            multiseed((0, 1, 2, 1))

    def test_result_records_seed_axis(self, result):
        assert result.seeds == (0, 1, 2)


class TestPayloadRoundTrip:
    def test_to_payload_from_payload_identity(self, result):
        payload = result_to_payload(result)
        assert result_from_payload(MultiSeedResult, payload) == result

    def test_round_trips_through_save_load_json(self, result, tmp_path):
        path = save_json(tmp_path / "multiseed.json", result_to_payload(result))
        assert result_from_payload(MultiSeedResult, load_json(path)) == result

    def test_malformed_payloads_rejected(self):
        for payload in (
            [1, 2, 3],
            {"metric": "m", "seeds": []},
            {"metric": "m", "seeds": [], "samples": "oops"},
            {"metric": "m", "seeds": 5, "samples": {}},
        ):
            with pytest.raises(ExperimentError):
                result_from_payload(MultiSeedResult, payload)


SCHEMES = ("greedy", "random", "equilibrium")


class TestPerSeedJobs:
    """Each seed is one Fig. 3-style scheme comparison: one
    ``market_scheme`` job per history-dependent scheme, the plannable
    schemes evaluated at assemble time."""

    def test_plans_one_job_per_seed_and_history_dependent_scheme(self):
        plan = schedule(
            "multiseed",
            {
                "config": ExperimentConfig.smoke(),
                "seeds": (0, 1, 2),
                "schemes": ("drl", *SCHEMES),
            },
        )
        assert [job.kind for job in plan.jobs] == ["market_scheme"] * 6
        assert [job.payload["scheme"] for job in plan.jobs] == [
            "drl", "greedy"
        ] * 3
        assert [job.payload["config"]["seed"] for job in plan.jobs] == [
            0, 0, 1, 1, 2, 2
        ]

    def test_plannable_schemes_plan_no_jobs(self, result, tmp_path):
        params = {
            "config": ExperimentConfig.smoke(),
            "seeds": (0, 1, 2),
            "schemes": ("random", "equilibrium"),
        }
        assert schedule("multiseed", params).jobs == []
        scheduler = QueueScheduler(tmp_path)
        assert multiseed((0, 1, 2), scheduler=scheduler) == result
        assert scheduler.jobs_executed == 0

    def test_fanned_equals_in_process_exactly(self, tmp_path):
        """Acceptance: the per-seed jobs over 2 or 3 local queue workers
        return samples exactly equal to (and in the same seed order as)
        the in-process run."""
        seeds = (0, 1, 2, 3, 4)
        in_process = multiseed(seeds, schemes=SCHEMES)
        for workers in (2, 3):
            fanned = QueueScheduler(tmp_path / f"queue{workers}", workers=workers)
            assert multiseed(seeds, schemes=SCHEMES, scheduler=fanned) == in_process
            assert fanned.jobs_executed == len(seeds)

    def test_resumes_seed_by_seed_from_the_store(self, tmp_path):
        """A seed's job already in the store (here run on its own, as
        Fig. 3's per-market unit) is a cache hit; only the other seeds'
        jobs execute."""
        seeds = (0, 1, 2)
        in_process = multiseed(seeds, schemes=SCHEMES)
        market = StackelbergMarket(paper_fig2_population())
        seed_jobs, _ = plan_scheme_jobs(
            [market], ExperimentConfig.smoke().with_seed(1), ("greedy",)
        )
        QueueScheduler(tmp_path).run(seed_jobs)
        scheduler = QueueScheduler(tmp_path)
        assert multiseed(seeds, schemes=SCHEMES, scheduler=scheduler) == in_process
        assert scheduler.jobs_executed == 2
        assert scheduler.cache_hits == 1


class TestAssemble:
    """Each seed's slice of the job results becomes that seed's samples,
    exactly the in-process Fig. 3 comparison under ``config.with_seed``."""

    def test_each_sample_is_the_in_process_comparison_under_its_seed(self):
        seeds = (0, 1, 2)
        result = multiseed(seeds, schemes=SCHEMES)
        market = StackelbergMarket(paper_fig2_population())
        for position, seed in enumerate(seeds):
            (expected,) = compare_schemes_stacked(
                [market], ExperimentConfig.smoke().with_seed(seed), schemes=SCHEMES
            )
            for scheme in SCHEMES:
                assert result.samples[scheme][position] == (
                    expected[scheme].mean_msp_utility
                )

    def test_samples_follow_the_requested_seed_order(self, result):
        shuffled = multiseed((2, 0, 1))
        assert shuffled.seeds == (2, 0, 1)
        for scheme, values in result.samples.items():
            assert shuffled.samples[scheme] == [values[2], values[0], values[1]]

    def test_metric_reads_that_evaluation_field(self):
        seeds = (0, 1)
        prices = multiseed(seeds, metric="mean_price")
        assert prices.metric == "mean_price"
        market = StackelbergMarket(paper_fig2_population())
        for position, seed in enumerate(seeds):
            (expected,) = compare_schemes_stacked(
                [market],
                ExperimentConfig.smoke().with_seed(seed),
                schemes=("random", "equilibrium"),
            )
            for scheme in ("random", "equilibrium"):
                assert prices.samples[scheme][position] == (
                    expected[scheme].mean_price
                )

    def _plan_and_results(self):
        plan = schedule(
            "multiseed",
            {
                "config": ExperimentConfig.smoke(),
                "seeds": (0, 1, 2),
                "schemes": SCHEMES,
            },
        )
        return plan, [execute_job(job) for job in plan.jobs]

    def test_short_result_list_raises(self):
        """A lost job result must fail loudly, not shift a later seed's
        slice onto the wrong seed."""
        plan, results = self._plan_and_results()
        with pytest.raises(ExperimentError, match="expected 3 job results"):
            get_experiment("multiseed").assemble(plan, results[:-1])

    def test_padded_result_list_raises(self):
        plan, results = self._plan_and_results()
        with pytest.raises(ExperimentError, match="got 4"):
            get_experiment("multiseed").assemble(plan, [*results, results[0]])
