"""Spec-API tests: registry, parameter validation, uniform payload
round-trips, and bitwise equality of the in-process and queued runs of
every spec's plan.

DRL runs use the smoke budget — these tests pin the *contract* (every
registered experiment compiles to jobs whose assembled result is bitwise
the same whether the jobs run in-process or through the queue with local
worker processes, the sweep rows equal one stacked solve of the swept
markets, and every result type round-trips through its generated JSON
payload), not training quality.
"""

import json
from dataclasses import replace

import pytest

from repro.channel.fading import RayleighFading
from repro.channel.link import paper_link
from repro.core.marketstack import MarketStack
from repro.core.stackelberg import StackelbergMarket
from repro.entities.vmu import paper_fig2_population, sample_population
from repro.errors import ConfigurationError, ExperimentError, ReproError
from repro.experiments import (
    ExperimentConfig,
    Fig2Result,
    experiment_names,
    get_experiment,
    run_experiment,
    schedule,
)
from repro.experiments import api
from repro.experiments import scheduler as scheduler_module
from repro.experiments.api import ParamSpec
from repro.experiments.scheduler import SOLVER_VERSION, Job
from repro.queue import QueueScheduler
from repro.utils.rng import as_generator
from repro.utils.serialization import load_json, save_json, to_jsonable

SMOKE = ExperimentConfig.smoke()

# One tiny-but-real parameterisation per registered experiment: every
# spec's plan/assemble, its execution paths, and its payload codec run
# against these.
TINY_PARAMS = {
    "fig2": {"config": SMOKE},
    "fig3_cost": {
        "config": SMOKE,
        "costs": (5.0, 9.0),
        "schemes": ("greedy", "random", "equilibrium"),
    },
    "fig3_vmus": {
        "config": SMOKE,
        "counts": (1, 2),
        "schemes": ("greedy", "equilibrium"),
    },
    "distance_sweep": {"distances_m": (500.0, 1000.0)},
    "fading_sweep": {"draws": 4},
    "population_sweep": {"num_vmus": 2, "draws": 3},
    "reward_ablation": {"config": SMOKE, "modes": ("utility",)},
    "history_ablation": {"config": SMOKE, "lengths": (1, 2)},
    "capacity_ablation": {"capacities": (10.0, 50.0)},
    "city_sweep": {"m": 6},
    "pricing_service": {
        "m": 6,
        "windows": 3,
        "queries_per_window": 4,
        "churn": 0.34,
    },
    "welfare": {},
    "bayesian_pricing": {"num_scenarios": 3, "seed": 1},
    "price_of_anarchy": {"ns": (1, 2), "max_iterations": 40},
    "multiseed": {
        "config": SMOKE,
        "seeds": (0, 1),
        "schemes": ("random", "equilibrium"),
    },
}


@pytest.fixture(scope="module")
def in_process_results():
    """Every experiment's schedulerless result (its plan's jobs executed
    in-process, one after another), computed once."""
    return {
        name: run_experiment(name, params)
        for name, params in TINY_PARAMS.items()
    }


class TestRegistry:
    def test_every_experiment_is_registered(self):
        assert experiment_names() == sorted(TINY_PARAMS)

    def test_get_experiment_unknown_name(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            get_experiment("fig9")

    def test_specs_carry_schema_and_result_type(self):
        for name in experiment_names():
            spec = get_experiment(name)
            assert spec.description
            assert spec.params, name
            assert isinstance(spec.result_type, type)

    def test_welfare_matches_report(self):
        from repro.core.welfare import welfare_report

        report = welfare_report(StackelbergMarket(paper_fig2_population()))
        result = run_experiment("welfare")
        assert result.monopoly_price == report.monopoly_price
        assert result.planner_welfare == report.planner_welfare
        assert result.efficiency == report.efficiency


class TestJobsPathBitwiseEqualsDirect:
    """Acceptance: every registered experiment assembles a bitwise-equal
    result whether its jobs run directly (in-process, no scheduler) or
    through the job queue with two local executors."""

    @pytest.mark.parametrize("name", sorted(TINY_PARAMS))
    def test_scheduled_equals_direct(self, name, in_process_results, tmp_path):
        queued = run_experiment(
            name,
            TINY_PARAMS[name],
            scheduler=QueueScheduler(tmp_path / "queue", workers=2),
        )
        assert queued == in_process_results[name]

    @pytest.mark.parametrize("name", sorted(TINY_PARAMS))
    def test_plan_compiles_to_jobs(self, name):
        plan = schedule(name, TINY_PARAMS[name])
        assert plan.experiment == name
        # Every job spec must survive the JSON wire (the schedule CLI /
        # remote-backend format).
        specs = json.loads(json.dumps(plan.job_specs()))
        assert len(specs) == len(plan.jobs)
        for spec in specs:
            assert set(spec) == {"kind", "payload"}

    def test_fig2_and_ablations_decompose_into_jobs(self):
        assert [j.kind for j in schedule("fig2", TINY_PARAMS["fig2"]).jobs] == [
            "training_run"
        ]
        history = schedule("history_ablation", TINY_PARAMS["history_ablation"])
        assert [j.kind for j in history.jobs] == ["training_run"] * 2
        capacity = schedule(
            "capacity_ablation", TINY_PARAMS["capacity_ablation"]
        )
        assert [j.kind for j in capacity.jobs] == ["equilibrium_cell"] * 2
        multiseed = schedule(
            "multiseed",
            {
                **TINY_PARAMS["multiseed"],
                "schemes": ("greedy", "random", "equilibrium"),
            },
        )
        assert [j.kind for j in multiseed.jobs] == ["market_scheme"] * 2


# The job kinds whose results the equilibrium solve feeds.
SOLVE_FED_KINDS = {
    "equilibrium_cell",
    "city_chunk",
    "pricing_service",
    "bayesian_pricing",
    "welfare_report",
    "market_scheme",
}


class TestJobEncoding:
    """Every planned job survives its own wire form with the same hash,
    and encodes its payload once however often it is asked."""

    @pytest.mark.parametrize("name", sorted(TINY_PARAMS))
    def test_solve_fed_jobs_carry_the_solver_version(self, name):
        """A store written before the solve's bits changed holds entries
        without the version: they hash apart and miss."""
        for job in schedule(name, TINY_PARAMS[name]).jobs:
            if job.kind not in SOLVE_FED_KINDS:
                assert "solver_version" not in job.payload
                continue
            assert job.payload["solver_version"] == SOLVER_VERSION
            unversioned = {
                key: value
                for key, value in job.payload.items()
                if key != "solver_version"
            }
            assert Job(job.kind, unversioned).job_hash() != job.job_hash()

    def test_every_solve_fed_kind_is_planned_and_none_takes_a_param(self):
        planned = {
            job.kind
            for name, params in TINY_PARAMS.items()
            for job in schedule(name, params).jobs
        }
        assert SOLVE_FED_KINDS <= planned
        for name in experiment_names():
            names = {param.name for param in get_experiment(name).params}
            assert "solver_version" not in names

    @pytest.mark.parametrize("name", sorted(TINY_PARAMS))
    def test_spec_round_trip_keeps_the_hash(self, name):
        for job in schedule(name, TINY_PARAMS[name]).jobs:
            assert Job.from_spec(job.spec()).job_hash() == job.job_hash()

    @pytest.mark.parametrize("name", sorted(TINY_PARAMS))
    def test_payload_is_encoded_once_per_job(self, name, monkeypatch):
        plan = schedule(name, TINY_PARAMS[name])
        jobs = [Job(job.kind, job.payload) for job in plan.jobs]
        calls = []

        def counting_to_jsonable(value):
            calls.append(value)
            return to_jsonable(value)

        monkeypatch.setattr(
            scheduler_module, "to_jsonable", counting_to_jsonable
        )
        for _ in range(3):
            for job in jobs:
                job.spec()
                job.job_hash()
        assert len(calls) == len(jobs)


class TestPayloadRoundTrips:
    """Acceptance: load_json(save_json(r)) is bitwise-equal for every
    registered result type — not just MultiSeedResult."""

    @pytest.mark.parametrize("name", sorted(TINY_PARAMS))
    def test_json_round_trip_identity(self, name, in_process_results, tmp_path):
        spec = get_experiment(name)
        result = in_process_results[name]
        path = save_json(
            tmp_path / f"{name}.json", spec.result_to_payload(result)
        )
        assert spec.result_from_payload(load_json(path)) == result

    def test_codec_rejects_non_mapping(self):
        with pytest.raises(ExperimentError, match="mapping"):
            api.result_from_payload(Fig2Result, [1, 2, 3])

    def test_codec_rejects_missing_and_unexpected_fields(self):
        spec = get_experiment("welfare")
        payload = spec.result_to_payload(run_experiment("welfare"))
        short = {k: v for k, v in payload.items() if k != "efficiency"}
        with pytest.raises(ExperimentError, match="missing=\\['efficiency'\\]"):
            spec.result_from_payload(short)
        with pytest.raises(ExperimentError, match="unexpected=\\['bogus'\\]"):
            spec.result_from_payload({**payload, "bogus": 1})

    def test_wrong_result_type_rejected(self):
        spec = get_experiment("welfare")
        with pytest.raises(ExperimentError, match="WelfareResult"):
            spec.result_to_payload(object())


class TestParamValidation:
    """Acceptance: a typo'd parameter key errors loudly instead of
    silently falling back to a default."""

    def test_run_experiment_rejects_unknown_key(self):
        with pytest.raises(ConfigurationError, match="'episodess'"):
            run_experiment("fig2", {"episodess": 2})

    def test_schedule_rejects_unknown_key(self):
        with pytest.raises(ConfigurationError, match="'draw'"):
            schedule("fading_sweep", {"draw": 4})

    def test_multiseed_metric_validated_before_any_training(self):
        """A typo'd metric must fail up front on every entry point — not
        minutes later in getattr inside a (possibly worker) evaluation."""
        bad = {**TINY_PARAMS["multiseed"], "metric": "mean_msp_utilty"}
        with pytest.raises(ValueError, match="mean_msp_utilty"):
            run_experiment("multiseed", bad)
        with pytest.raises(ValueError, match="PolicyEvaluation field"):
            schedule("multiseed", bad)

    def test_ill_typed_value_rejected_naming_param(self):
        with pytest.raises(ConfigurationError, match="'episodes'"):
            run_experiment("fig2", {"episodes": "lots"})
        with pytest.raises(ConfigurationError, match="'costs'"):
            schedule("fig3_cost", {"costs": 5.0})

    @pytest.mark.parametrize("name", ["city_sweep", "pricing_service"])
    @pytest.mark.parametrize("knob", ["chunk_size", "chunk_bytes"])
    def test_solve_chunking_is_not_a_param(self, name, knob):
        """The solve sizes its own chunks; no experiment takes a knob."""
        with pytest.raises(ConfigurationError, match=knob):
            schedule(name, {knob: 2})

    def test_none_means_default(self):
        spec = get_experiment("fig3_cost")
        validated = spec.validate({"costs": None})
        assert validated["costs"] == (5.0, 6.0, 7.0, 8.0, 9.0)

    def test_param_parse_types(self):
        assert ParamSpec("s", "ints").parse("0,1,2") == (0, 1, 2)
        assert ParamSpec("c", "floats").parse("5,7.5") == (5.0, 7.5)
        assert ParamSpec("m", "strs").parse("drl, random") == ("drl", "random")
        assert ParamSpec("b", "bool").parse("yes") is True
        assert ParamSpec("e", "int?").parse("none") is None
        assert ParamSpec("e", "int?").parse("3") == 3
        with pytest.raises(ConfigurationError, match="'e'"):
            ParamSpec("e", "int?").parse("many")

    def test_fading_param_parses_names_and_json_payloads(self):
        from repro.channel.fading import LogNormalShadowing, RicianFading

        spec = ParamSpec("fading", "fading?")
        assert type(spec.parse("rayleigh")).__name__ == "RayleighFading"
        assert spec.parse("nofading").__class__.__name__ == "NoFading"
        assert spec.parse("none") is None  # "none" = unset → default
        rician = spec.parse('{"model": "rician", "k_factor": 3.0}')
        assert rician == RicianFading(k_factor=3.0)
        shadow = spec.coerce({"model": "shadowing", "sigma_db": 4.0})
        assert shadow == LogNormalShadowing(sigma_db=4.0)
        # Parameterised models by bare name must explain the JSON form.
        with pytest.raises(ConfigurationError, match="JSON"):
            spec.parse("rician")
        with pytest.raises(ConfigurationError, match="unknown fading"):
            spec.parse("nakagami")

    def test_unknown_param_type_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown type"):
            ParamSpec("x", "complex128")

    def test_resolve_config_presets_and_overrides(self):
        assert api.resolve_config({"preset": "smoke"}) == SMOKE
        assert api.resolve_config({"preset": "quick", "seed": 7}).seed == 7
        resolved = api.resolve_config({"config": SMOKE, "episodes": 2})
        assert resolved.num_episodes == 2
        assert resolved.rounds_per_episode == SMOKE.rounds_per_episode
        with pytest.raises(ConfigurationError, match="unknown preset"):
            api.resolve_config({"preset": "huge"})


class TestMultiseedFansOutPerSeed:
    def test_multiseed_runs_one_job_per_seed_over_workers(self, tmp_path):
        """A history-dependent scheme is one market_scheme job per seed,
        fanned over the scheduler's workers, with the in-process result."""
        params = {
            **TINY_PARAMS["multiseed"],
            "schemes": ("greedy", "random", "equilibrium"),
        }
        scheduler = QueueScheduler(tmp_path, workers=2)
        result = run_experiment("multiseed", params, scheduler=scheduler)
        assert scheduler.jobs_executed == 2
        assert result == run_experiment("multiseed", params)

    def test_each_seed_is_its_own_job(self):
        """The seed is part of each job's payload, so the store keeps one
        entry per seed rather than one cache hit for all of them."""
        plan = schedule(
            "multiseed",
            {
                **TINY_PARAMS["multiseed"],
                "seeds": (0, 1, 2),
                "schemes": ("greedy", "random"),
            },
        )
        assert len({job.job_hash() for job in plan.jobs}) == 3


class TestResumeFromCache:
    """Acceptance: a killed fig2/ablation run resumes from its queue
    directory's store with results bitwise-equal to the sequential path."""

    def test_fig2_resumes_without_retraining(self, tmp_path, in_process_results):
        scheduler = QueueScheduler(tmp_path)
        first = run_experiment("fig2", TINY_PARAMS["fig2"], scheduler=scheduler)
        assert first == in_process_results["fig2"]
        assert scheduler.jobs_executed == 1
        # The training job parked its agent next to the stored results.
        checkpoints = tmp_path / "results" / "checkpoints"
        assert len(list(checkpoints.glob("*.npz"))) == 1
        resumed_scheduler = QueueScheduler(tmp_path)
        resumed = run_experiment(
            "fig2", TINY_PARAMS["fig2"], scheduler=resumed_scheduler
        )
        assert resumed == in_process_results["fig2"]
        assert resumed_scheduler.jobs_executed == 0
        assert resumed_scheduler.cache_hits == 1

    def test_killed_history_ablation_resumes(self, tmp_path, in_process_results):
        params = TINY_PARAMS["history_ablation"]
        scheduler = QueueScheduler(tmp_path)
        baseline = run_experiment(
            "history_ablation", params, scheduler=scheduler
        )
        stored = sorted((tmp_path / "results").glob("*.json"))
        assert len(stored) == 2  # one training_run per history length
        # Simulate a run killed after finishing only the first length.
        stored[1].unlink()
        resumed_scheduler = QueueScheduler(tmp_path)
        resumed = run_experiment(
            "history_ablation", params, scheduler=resumed_scheduler
        )
        assert resumed_scheduler.cache_hits == 1
        assert resumed_scheduler.jobs_executed == 1
        assert resumed == baseline
        assert resumed == in_process_results["history_ablation"]


def _stacked_cells(markets):
    """The oracle: one stacked solve of the swept markets."""
    solved = MarketStack(markets).equilibria_stacked()
    return [solved.equilibrium(m) for m in range(len(markets))]


class TestSweepRowsMatchStackedSolve:
    """Each sweep plans one ``equilibrium_cell`` job per market; its rows
    must equal one stacked solve of the same markets, built here from the
    spec's parameters."""

    @pytest.mark.parametrize("queued", [False, True], ids=["direct", "queue"])
    def test_city_sweep_jobs_assemble_one_cold_solve(
        self, queued, tmp_path, monkeypatch
    ):
        """Three ``city_chunk`` jobs of 2 markets assemble the payload of
        one cold solve of the whole city."""
        from repro.experiments import cityscale
        from repro.mobility.citygrid import CityGridSpec, city_columns
        from repro.utils.stats import summarize

        monkeypatch.setattr(cityscale, "JOB_MARKETS", 2)
        params = {"m": 6}
        plan = schedule("city_sweep", params)
        assert [
            (job.payload["start"], job.payload["stop"]) for job in plan.jobs
        ] == [(0, 2), (2, 4), (4, 6)]
        scheduler = (
            QueueScheduler(tmp_path / "queue", workers=2) if queued else None
        )
        result = run_experiment("city_sweep", params, scheduler=scheduler)

        spec = CityGridSpec.for_markets(6)
        cold = MarketStack.from_columns(city_columns(spec))
        cold = cold.equilibria_stacked()
        ok = cold.feasible.tolist()
        expected = cityscale.CityScaleResult(
            num_markets=6,
            rows=spec.rows,
            cols=spec.cols,
            chunk_markets=2,
            feasible=sum(ok),
            capacity_binding=int(cold.capacity_binding.sum()),
            price_cap_binding=int(cold.price_cap_binding.sum()),
            price_stats=summarize(
                [p for p, f in zip(cold.prices.tolist(), ok) if f]
            ),
            utility_stats=summarize(
                [u for u, f in zip(cold.msp_utilities.tolist(), ok) if f]
            ),
            total_bandwidth=sum(
                b for b, f in zip(cold.total_bandwidths.tolist(), ok) if f
            ),
        )
        spec_api = get_experiment("city_sweep")
        assert json.dumps(spec_api.result_to_payload(result)) == json.dumps(
            spec_api.result_to_payload(expected)
        )

    def test_distance_sweep(self):
        distances = (250.0, 500.0, 1000.0)
        markets = [
            StackelbergMarket(
                paper_fig2_population(), link=paper_link().with_distance(d)
            )
            for d in distances
        ]
        cells = _stacked_cells(markets)
        result = run_experiment("distance_sweep", {"distances_m": distances})
        assert result.prices == [cell.price for cell in cells]
        assert result.msp_utilities == [cell.msp_utility for cell in cells]
        assert result.spectral_efficiencies == [
            market.spectral_efficiency for market in markets
        ]

    def test_capacity_ablation(self):
        capacities = (5.0, 25.0, 100.0)
        base = StackelbergMarket(paper_fig2_population())
        markets = [
            StackelbergMarket(
                base.vmus,
                config=replace(base.config, max_bandwidth=capacity),
                link=base.link,
            )
            for capacity in capacities
        ]
        cells = _stacked_cells(markets)
        result = run_experiment(
            "capacity_ablation", {"capacities": capacities}
        )
        assert result.rows == [
            (capacity, cell.price, cell.msp_utility, cell.capacity_binding)
            for capacity, cell in zip(capacities, cells)
        ]
        # Both regimes are exercised.
        assert {row[3] for row in result.rows} == {True, False}

    def test_fading_sweep(self):
        gains = RayleighFading().sample(as_generator(3), size=5)
        markets = [
            StackelbergMarket(
                paper_fig2_population(),
                link=paper_link().with_fading_gain(float(max(gain, 1e-6))),
            )
            for gain in gains
        ]
        cells = _stacked_cells(markets)
        result = run_experiment("fading_sweep", {"draws": 5, "seed": 3})
        assert result.prices == [cell.price for cell in cells]
        assert result.utilities == [cell.msp_utility for cell in cells]

    def test_population_sweep(self):
        rng = as_generator(2)
        markets = [
            StackelbergMarket(sample_population(3, seed=rng))
            for _ in range(4)
        ]
        cells = _stacked_cells(markets)
        result = run_experiment(
            "population_sweep", {"num_vmus": 3, "draws": 4, "seed": 2}
        )
        assert result.per_draw == [
            (cell.price, cell.msp_utility) for cell in cells
        ]


# Every sweep axis of the registry, with the spec it belongs to.
SWEEP_AXES = [
    ("distance_sweep", "distances_m"),
    ("capacity_ablation", "capacities"),
    ("fig3_cost", "costs"),
    ("fig3_cost", "schemes"),
    ("fig3_vmus", "counts"),
    ("fig3_vmus", "schemes"),
    ("price_of_anarchy", "ns"),
    ("reward_ablation", "modes"),
    ("history_ablation", "lengths"),
    ("multiseed", "schemes"),
]


class TestEmptySweepAxisRejected:
    """An empty sweep axis would plan no jobs and silently assemble an
    empty result; every path rejects it up front, naming the axis."""

    @pytest.mark.parametrize("with_scheduler", [False, True])
    @pytest.mark.parametrize("name,axis", SWEEP_AXES)
    def test_empty_axis_raises(self, name, axis, with_scheduler, tmp_path):
        scheduler = QueueScheduler(tmp_path) if with_scheduler else None
        with pytest.raises(ConfigurationError, match=repr(axis)):
            run_experiment(
                name, {**TINY_PARAMS[name], axis: ()}, scheduler=scheduler
            )
        if scheduler is not None:
            assert scheduler.jobs_executed == 0

    def test_empty_axis_from_the_cli_text(self):
        spec = get_experiment("distance_sweep")
        with pytest.raises(ConfigurationError, match="'distances_m'"):
            spec.validate({"distances_m": spec.param("distances_m").parse("")})


class TestSpecValidationErrorsAreTyped:
    """Spec-level validation raises ConfigurationError (a ReproError and a
    ValueError), before any job runs."""

    @pytest.mark.parametrize(
        "name,params,message",
        [
            ("fading_sweep", {"draws": 1}, "draws must be >= 2"),
            ("population_sweep", {"draws": 1}, "draws must be >= 2"),
            ("population_sweep", {"num_vmus": 0}, "num_vmus must be >= 1"),
            ("multiseed", {"shards": 2}, "unknown parameter 'shards'"),
            ("multiseed", {"seeds": (1, 1)}, "duplicate seeds"),
            ("multiseed", {"seeds": (3,)}, "at least two seeds"),
            ("multiseed", {"metric": "bogus"}, "PolicyEvaluation field"),
            ("multiseed", {"schemes": ("oracle",)}, "unknown schemes"),
            ("fig3_cost", {"schemes": ("oracle",)}, "unknown schemes"),
            ("fig3_vmus", {"schemes": ("drl", "bogus")}, "unknown schemes"),
        ],
    )
    def test_raises_repro_error(self, name, params, message):
        with pytest.raises(ReproError, match=message) as raised:
            schedule(name, {**TINY_PARAMS[name], **params})
        assert isinstance(raised.value, ConfigurationError)
        assert isinstance(raised.value, ValueError)

    def test_unknown_scheme_in_a_market_scheme_job(self):
        from repro.experiments.runner import run_market_scheme_job
        from repro.experiments.scheduler import (
            config_to_payload,
            market_to_payload,
        )

        with pytest.raises(ConfigurationError, match="unknown scheme"):
            run_market_scheme_job(
                {
                    "scheme": "oracle",
                    "market": market_to_payload(
                        StackelbergMarket(paper_fig2_population())
                    ),
                    "config": config_to_payload(SMOKE),
                }
            )
