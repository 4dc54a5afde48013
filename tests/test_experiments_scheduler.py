"""Experiment scheduler tests: jobs, hashing, caching, resume, fan-out.

Every test runs under a signal-based watchdog (see ``_watchdog``) so a hung
worker pool fails the test fast instead of stalling the suite — the same
guard the CI job enforces with ``pytest-timeout``.
"""

import json
import multiprocessing
import pathlib
import signal
import time

import pytest

from repro.channel.link import paper_link
from repro.core.stackelberg import MarketConfig, StackelbergMarket
from repro.drl.checkpoints import load_agent
from repro.entities.vmu import paper_fig2_population, sample_population
from repro.errors import ExperimentError
from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.run import schedule_main
from repro.experiments.scheduler import (
    Job,
    JobScheduler,
    config_from_payload,
    config_to_payload,
    execute_job,
    market_from_payload,
    market_to_payload,
    register_job_kind,
)
from repro.utils.serialization import load_json, save_json

WATCHDOG_SECONDS = 120.0


@pytest.fixture(autouse=True)
def _watchdog():
    """Per-test timeout guard: a hung pool fails fast, not forever."""
    if not hasattr(signal, "SIGALRM"):  # non-POSIX fallback: no guard
        yield
        return

    def _timed_out(signum, frame):
        raise TimeoutError(
            f"scheduler test exceeded the {WATCHDOG_SECONDS}s watchdog — "
            "a worker pool is probably hung"
        )

    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.setitimer(signal.ITIMER_REAL, WATCHDOG_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _cell_jobs(markets):
    return [
        Job("equilibrium_cell", {"market": market_to_payload(market)})
        for market in markets
    ]


def fig3_cost_sweep(config, *, costs, schemes, scheduler=None):
    return run_experiment(
        "fig3_cost",
        {"config": config, "costs": costs, "schemes": schemes},
        scheduler=scheduler,
    )


def _markets(count=3):
    rng_markets = [
        StackelbergMarket(sample_population(3, seed=seed)) for seed in range(count)
    ]
    return rng_markets


class TestJob:
    def test_hash_is_stable_across_key_order(self):
        a = Job("equilibrium_cell", {"x": 1, "y": [1, 2], "z": "s"})
        b = Job("equilibrium_cell", {"z": "s", "y": (1, 2), "x": 1})
        assert a.job_hash() == b.job_hash()

    def test_hash_distinguishes_payloads_and_kinds(self):
        base = Job("equilibrium_cell", {"x": 1})
        assert base.job_hash() != Job("equilibrium_cell", {"x": 2}).job_hash()
        assert base.job_hash() != Job("multiseed_shard", {"x": 1}).job_hash()

    def test_hash_survives_json_round_trip(self):
        market = StackelbergMarket(paper_fig2_population())
        job = _cell_jobs([market])[0]
        round_tripped = Job.from_spec(json.loads(json.dumps(job.spec())))
        assert round_tripped.job_hash() == job.job_hash()

    def test_from_spec_rejects_malformed(self):
        with pytest.raises(ExperimentError):
            Job.from_spec([1, 2])
        with pytest.raises(ExperimentError):
            Job.from_spec({"payload": {}})
        with pytest.raises(ExperimentError):
            Job.from_spec({"kind": "k"})
        with pytest.raises(ExperimentError):
            Job.from_spec({"kind": "k", "payload": "oops"})

    def test_from_spec_rejects_unknown_keys(self):
        """A spec is exactly {kind, payload}: extra keys are junk (a
        tampered or foreign file), never silently dropped — dropping them
        would make two different files hash to the same job."""
        with pytest.raises(ExperimentError, match=r"unknown key \['priority'\]"):
            Job.from_spec({"kind": "k", "payload": {}, "priority": 3})
        with pytest.raises(
            ExperimentError, match=r"unknown keys \['owner', 'priority'\]"
        ):
            Job.from_spec(
                {"kind": "k", "payload": {}, "priority": 3, "owner": "me"}
            )

    def test_unknown_kind_rejected_at_execution(self):
        with pytest.raises(ExperimentError, match="unknown job kind"):
            execute_job(Job("no_such_kind", {}))


class TestPayloadCodecs:
    def test_market_round_trip_is_bitwise(self):
        markets = _markets()
        markets.append(
            StackelbergMarket(
                paper_fig2_population(),
                config=MarketConfig(unit_cost=7.5, enforce_capacity=False),
                link=paper_link().with_distance(1234.5),
            )
        )
        markets.append(
            StackelbergMarket(
                paper_fig2_population(),
                link=paper_link().with_fading_gain(0.731),
            )
        )
        for market in markets:
            rebuilt = market_from_payload(
                json.loads(json.dumps(market_to_payload(market)))
            )
            original = market.equilibrium()
            restored = rebuilt.equilibrium()
            assert restored.price == original.price
            assert restored.msp_utility == original.msp_utility

    def test_market_payload_rejects_malformed(self):
        with pytest.raises(ExperimentError):
            market_from_payload("oops")
        with pytest.raises(ExperimentError):
            market_from_payload({"vmus": []})
        payload = market_to_payload(StackelbergMarket(paper_fig2_population()))
        payload["link"]["path_loss"] = {"model": "martian"}
        with pytest.raises(ExperimentError, match="path-loss"):
            market_from_payload(payload)

    def test_config_round_trip(self):
        config = ExperimentConfig.quick(seed=3).with_num_envs(2)
        rebuilt = config_from_payload(
            json.loads(json.dumps(config_to_payload(config)))
        )
        assert rebuilt == config

    def test_config_payload_rejects_unknown_keys(self):
        with pytest.raises(ExperimentError, match="unknown keys"):
            config_from_payload({"seed": 0, "bogus_knob": 1})


class TestSchedulerRun:
    def test_in_process_cells_match_equilibria(self):
        markets = _markets()
        scheduler = JobScheduler(workers=1)
        results = scheduler.run(_cell_jobs(markets))
        for market, payload in zip(markets, results):
            equilibrium = market.equilibrium()
            assert payload["price"] == equilibrium.price
            assert payload["msp_utility"] == equilibrium.msp_utility
        assert scheduler.jobs_executed == len(markets)
        assert scheduler.cache_hits == 0

    def test_process_pool_matches_in_process(self):
        markets = _markets(4)
        sequential = JobScheduler(workers=1).run(_cell_jobs(markets))
        pooled = JobScheduler(workers=2).run(_cell_jobs(markets))
        assert pooled == sequential

    def test_duplicate_jobs_execute_once(self):
        market = StackelbergMarket(paper_fig2_population())
        jobs = _cell_jobs([market, market, market])
        scheduler = JobScheduler(workers=1)
        results = scheduler.run(jobs)
        assert scheduler.jobs_executed == 1
        assert results[0] == results[1] == results[2]

    def test_invalid_knobs_rejected(self):
        with pytest.raises(ExperimentError):
            JobScheduler(workers=0)
        with pytest.raises(ExperimentError):
            JobScheduler(job_timeout=0.0)

    def test_cache_layout_and_resume_hits_no_worker(self, tmp_path, monkeypatch):
        markets = _markets()
        jobs = _cell_jobs(markets)
        first = JobScheduler(workers=2, cache_dir=tmp_path)
        baseline = first.run(jobs)
        assert first.jobs_executed == len(jobs)
        for job in jobs:
            path = tmp_path / f"{job.job_hash()}.json"
            assert path.exists()
            entry = load_json(path)
            assert entry["job"] == job.spec()
            assert "result" in entry
        # Resume: no job function may run — not in-process, not in a pool.
        monkeypatch.setattr(
            "repro.experiments.scheduler.execute_job",
            lambda job: pytest.fail("resume must not execute jobs"),
        )
        monkeypatch.setattr(
            "repro.experiments.scheduler.execute_spec",
            lambda spec: pytest.fail("resume must not execute jobs"),
        )
        resumed = JobScheduler(workers=2, cache_dir=tmp_path)
        assert resumed.run(jobs) == baseline
        assert resumed.cache_hits == len(jobs)
        assert resumed.jobs_executed == 0
        assert resumed.job_sources == ["cache"] * len(jobs)

    def test_resume_false_re_executes(self, tmp_path):
        jobs = _cell_jobs(_markets(1))
        JobScheduler(workers=1, cache_dir=tmp_path).run(jobs)
        fresh = JobScheduler(workers=1, cache_dir=tmp_path, resume=False)
        fresh.run(jobs)
        assert fresh.jobs_executed == 1
        assert fresh.cache_hits == 0

    def test_corrupt_cache_entry_recomputes(self, tmp_path):
        jobs = _cell_jobs(_markets(1))
        scheduler = JobScheduler(workers=1, cache_dir=tmp_path)
        baseline = scheduler.run(jobs)
        path = tmp_path / f"{jobs[0].job_hash()}.json"
        path.write_text('{"job": {"kind": "trunc')  # killed mid-write
        again = JobScheduler(workers=1, cache_dir=tmp_path)
        assert again.run(jobs) == baseline
        assert again.jobs_executed == 1
        assert load_json(path)["result"] == baseline[0]

    def test_foreign_cache_entry_raises(self, tmp_path):
        jobs = _cell_jobs(_markets(1))
        scheduler = JobScheduler(workers=1, cache_dir=tmp_path)
        scheduler.run(jobs)
        path = tmp_path / f"{jobs[0].job_hash()}.json"
        entry = load_json(path)
        entry["job"]["payload"]["market"]["config"]["unit_cost"] = 99.0
        path.write_text(json.dumps(entry))
        with pytest.raises(ExperimentError, match="different job spec"):
            JobScheduler(workers=1, cache_dir=tmp_path).run(jobs)

    def test_mismatch_error_distinguishes_foreign_from_collision(
        self, tmp_path
    ):
        """A wrong spec in a hash-named slot has two explanations — a
        foreign file dropped into the directory, or a genuine SHA-256
        collision — and the error must say which, naming both the found
        and the expected job kinds (the operator's first question)."""
        jobs = _cell_jobs(_markets(1))
        scheduler = JobScheduler(workers=1, cache_dir=tmp_path)
        scheduler.run(jobs)
        path = tmp_path / f"{jobs[0].job_hash()}.json"
        entry = load_json(path)
        # A foreign file: another kind's entry occupying this job's slot.
        entry["job"] = {"kind": "multiseed_shard", "payload": {"seeds": [0]}}
        path.write_text(json.dumps(entry))
        with pytest.raises(ExperimentError) as excinfo:
            JobScheduler(workers=1, cache_dir=tmp_path).run(jobs)
        message = str(excinfo.value)
        assert "found kind 'multiseed_shard'" in message
        assert "expected kind 'equilibrium_cell'" in message
        assert "foreign file" in message
        assert "SHA-256 collision" not in message
        # An unparseable recorded spec is also a foreign file, not a crash
        # inside the error path.
        entry["job"] = {"kind": "equilibrium_cell"}  # no payload: malformed
        path.write_text(json.dumps(entry))
        with pytest.raises(ExperimentError, match="foreign file"):
            JobScheduler(workers=1, cache_dir=tmp_path).run(jobs)

    def test_concurrent_cache_writers_never_clobber(self, tmp_path):
        """Many writers racing on one entry (the at-least-once execution
        story) each use a unique fsync-ed temp name, so the visible entry
        is always one writer's complete output and no temp debris stays."""
        import concurrent.futures

        from repro.experiments.scheduler import (
            read_result_entry,
            write_result_entry,
        )

        job = _cell_jobs(_markets(1))[0]
        result = {"price": 1.25, "msp_utility": 2.5, "capacity_binding": False}
        target = tmp_path / f"{job.job_hash()}.json"
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            list(
                pool.map(
                    lambda _: write_result_entry(target, job, result),
                    range(64),
                )
            )
        assert read_result_entry(target, job) == result
        assert list(tmp_path.glob("*.tmp")) == []

    def test_failing_job_propagates(self):
        # 'market_scheme' with an unknown scheme raises inside the worker.
        market_payload = market_to_payload(
            StackelbergMarket(paper_fig2_population())
        )
        job = Job(
            "market_scheme",
            {
                "scheme": "martian",
                "market": market_payload,
                "config": config_to_payload(ExperimentConfig.smoke()),
            },
        )
        with pytest.raises(ValueError, match="unknown scheme"):
            JobScheduler(workers=1).run([job])


def _sleepy_job(payload):
    time.sleep(float(payload["seconds"]))
    return {"slept": payload["seconds"]}


register_job_kind("test_sleepy", _sleepy_job)


class TestJobTimeout:
    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="test-local job kind reaches workers via fork inheritance",
    )
    def test_hung_pool_fails_fast(self):
        jobs = [
            Job("test_sleepy", {"seconds": 3.0, "tag": tag})
            for tag in ("a", "b")
        ]
        scheduler = JobScheduler(workers=2, job_timeout=0.3)
        start = time.perf_counter()
        with pytest.raises(ExperimentError, match="job_timeout"):
            scheduler.run(jobs)
        assert time.perf_counter() - start < 2.5

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="test-local job kind reaches workers via fork inheritance",
    )
    def test_timeout_guards_single_worker_too(self):
        """job_timeout must not be silently inoperative on the workers=1 /
        single-job shortcut — it forces the pool path."""
        scheduler = JobScheduler(workers=1, job_timeout=0.3)
        start = time.perf_counter()
        with pytest.raises(ExperimentError, match="job_timeout"):
            scheduler.run([Job("test_sleepy", {"seconds": 3.0})])
        assert time.perf_counter() - start < 2.5

    def test_registered_kind_runs_in_process(self):
        result = JobScheduler(workers=1).run(
            [Job("test_sleepy", {"seconds": 0.0})]
        )
        assert result == [{"slept": 0.0}]

    def test_builtin_kind_name_collision_rejected(self):
        with pytest.raises(ExperimentError, match="built in"):
            register_job_kind("equilibrium_cell", _sleepy_job)


class TestScheduledFig3:
    SCHEMES = ("drl", "random", "equilibrium")
    COSTS = (5.0, 7.0)

    def _equal(self, a, b, keys):
        return all(
            vars(a.evaluations[k][scheme]) == vars(b.evaluations[k][scheme])
            for k in keys
            for scheme in self.SCHEMES
        )

    def test_sharded_fig3_cost_equals_sequential_bitwise(self, tmp_path):
        """Acceptance: workers>1 fig3 == sequential fig3, bitwise."""
        config = ExperimentConfig.smoke()
        sequential = fig3_cost_sweep(
            config, costs=self.COSTS, schemes=self.SCHEMES
        )
        scheduler = JobScheduler(workers=2, cache_dir=tmp_path)
        sharded = fig3_cost_sweep(
            config, costs=self.COSTS, schemes=self.SCHEMES, scheduler=scheduler
        )
        assert self._equal(sequential, sharded, self.COSTS)

    def test_sharded_fig3_vmus_equals_sequential_bitwise(self):
        config = ExperimentConfig.smoke()
        counts = (1, 3)
        params = {"config": config, "counts": counts, "schemes": self.SCHEMES}
        sequential = run_experiment("fig3_vmus", params)
        sharded = run_experiment(
            "fig3_vmus", params, scheduler=JobScheduler(workers=2)
        )
        assert self._equal(sequential, sharded, counts)

    def test_killed_run_resumes_from_cache(self, tmp_path):
        """Acceptance: a killed-and-resumed run completes from cache
        without re-running finished jobs."""
        config = ExperimentConfig.smoke()
        scheduler = JobScheduler(workers=1, cache_dir=tmp_path)
        baseline = fig3_cost_sweep(
            config, costs=self.COSTS, schemes=("drl",), scheduler=scheduler
        )
        cached = sorted(tmp_path.glob("*.json"))
        assert len(cached) == len(self.COSTS)
        # Simulate a run killed after finishing only the first market.
        cached[1].unlink()
        resumed_scheduler = JobScheduler(workers=1, cache_dir=tmp_path)
        resumed = fig3_cost_sweep(
            config,
            costs=self.COSTS,
            schemes=("drl",),
            scheduler=resumed_scheduler,
        )
        assert resumed_scheduler.cache_hits == 1
        assert resumed_scheduler.jobs_executed == 1
        for cost in self.COSTS:
            assert vars(resumed.evaluations[cost]["drl"]) == vars(
                baseline.evaluations[cost]["drl"]
            )

    def test_cache_is_relocatable(self, tmp_path):
        """Job hashes must not depend on the cache directory: a cache
        written under one path (DRL checkpoint targets included) resumes
        under any other — the cross-machine cache-sharing contract."""
        import shutil

        config = ExperimentConfig.smoke()
        first_dir = tmp_path / "first"
        baseline = fig3_cost_sweep(
            config,
            costs=self.COSTS,
            schemes=("drl",),
            scheduler=JobScheduler(workers=1, cache_dir=first_dir),
        )
        moved_dir = tmp_path / "elsewhere" / "moved"
        moved_dir.parent.mkdir()
        shutil.move(first_dir, moved_dir)
        relocated = JobScheduler(workers=1, cache_dir=moved_dir)
        resumed = fig3_cost_sweep(
            config, costs=self.COSTS, schemes=("drl",), scheduler=relocated
        )
        assert relocated.jobs_executed == 0
        assert relocated.cache_hits == len(self.COSTS)
        for cost in self.COSTS:
            assert vars(resumed.evaluations[cost]["drl"]) == vars(
                baseline.evaluations[cost]["drl"]
            )

    def test_drl_checkpoints_handed_home(self, tmp_path):
        """Each per-market DRL job parks its trained agent in the cache's
        checkpoints/ dir, loadable (and then deletable) via load_agent;
        cached results record the cache-*relative* path so a shared or
        moved cache still resolves."""
        config = ExperimentConfig.smoke()
        scheduler = JobScheduler(workers=1, cache_dir=tmp_path)
        fig3_cost_sweep(
            config, costs=self.COSTS, schemes=("drl",), scheduler=scheduler
        )
        checkpoints = sorted((tmp_path / "checkpoints").glob("*.npz"))
        assert len(checkpoints) == len(self.COSTS)
        for entry_path in tmp_path.glob("*.json"):
            recorded = load_json(entry_path)["result"]["checkpoint"]
            assert not pathlib.PurePath(recorded).is_absolute()
            assert (tmp_path / recorded).exists()
        for checkpoint in checkpoints:
            agent, scaler, meta = load_agent(checkpoint)
            assert meta["history_length"] == config.history_length
            assert scaler.high > scaler.low
            checkpoint.unlink()  # the handle was closed: deletable


class TestScheduledSweeps:
    """A pooled sweep equals the in-process run, whose rows
    ``test_experiments_api.py`` pins against one stacked solve of the
    sweep's markets."""

    @staticmethod
    def _pooled_and_in_process(name, params):
        pooled = run_experiment(name, params, scheduler=JobScheduler(workers=2))
        return pooled, run_experiment(name, params)

    def test_distance_sweep_matches_stacked(self):
        pooled, in_process = self._pooled_and_in_process("distance_sweep", {})
        assert pooled.prices == in_process.prices
        assert pooled.msp_utilities == in_process.msp_utilities

    def test_fading_sweep_matches_stacked(self):
        pooled, in_process = self._pooled_and_in_process(
            "fading_sweep", {"draws": 8, "seed": 1}
        )
        assert pooled.prices == in_process.prices
        assert pooled.utilities == in_process.utilities

    def test_population_sweep_matches_stacked(self):
        pooled, in_process = self._pooled_and_in_process(
            "population_sweep", {"draws": 5, "seed": 2}
        )
        assert pooled.per_draw == in_process.per_draw

    def test_multiseed_resumes_through_scheduler_cache(self, tmp_path):
        params = {
            "config": ExperimentConfig.smoke(),
            "seeds": (0, 1, 2, 3),
            "schemes": ("random", "equilibrium"),
        }
        sequential = run_experiment("multiseed", params)
        scheduler = JobScheduler(workers=2, cache_dir=tmp_path)
        sharded = run_experiment("multiseed", params, scheduler=scheduler)
        assert sharded == sequential
        assert scheduler.jobs_executed == 2
        resumed_scheduler = JobScheduler(workers=2, cache_dir=tmp_path)
        resumed = run_experiment(
            "multiseed", params, scheduler=resumed_scheduler
        )
        assert resumed == sequential
        assert resumed_scheduler.jobs_executed == 0
        assert resumed_scheduler.cache_hits == 2


class TestScheduleCli:
    def _jobs_file(self, tmp_path):
        markets = _markets(2)
        specs = [job.spec() for job in _cell_jobs(markets)]
        return save_json(tmp_path / "jobs.json", specs), markets

    def test_schedule_runs_jobs_file(self, tmp_path, capsys):
        jobs_file, markets = self._jobs_file(tmp_path)
        code = schedule_main(
            [
                "--jobs", str(jobs_file),
                "--workers", "1",
                "--cache-dir", str(tmp_path / "cache"),
                "--output", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 job(s): 2 executed, 0 from cache" in out
        results = load_json(tmp_path / "out" / "schedule.json")
        for market, entry in zip(markets, results):
            assert entry["result"]["price"] == market.equilibrium().price

    def test_schedule_resumes_from_cache(self, tmp_path, capsys):
        jobs_file, _ = self._jobs_file(tmp_path)
        argv = [
            "--jobs", str(jobs_file),
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert schedule_main(argv) == 0
        capsys.readouterr()
        assert schedule_main(argv) == 0
        out = capsys.readouterr().out
        assert "2 job(s): 0 executed, 2 from cache" in out
        assert out.count("cache") >= 2

    def test_schedule_rejects_bad_inputs(self, tmp_path):
        jobs_file = save_json(tmp_path / "jobs.json", {"kind": "x"})
        with pytest.raises(SystemExit):
            schedule_main(["--jobs", str(jobs_file)])
        good = save_json(tmp_path / "good.json", [])
        with pytest.raises(SystemExit):
            schedule_main(["--jobs", str(good), "--workers", "0"])

    def test_schedule_rejects_malformed_json(self, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text('[{"kind": "trunc')
        with pytest.raises(SystemExit):  # clean CLI error, not a traceback
            schedule_main(["--jobs", str(broken)])

    def test_schedule_rejects_malformed_spec_entries(self, tmp_path):
        bad_entries = save_json(
            tmp_path / "bad.json",
            [{"kind": "equilibrium_cell", "payload": "oops"}],
        )
        with pytest.raises(SystemExit):  # clean CLI error, not a traceback
            schedule_main(["--jobs", str(bad_entries)])

    def test_scheduler_flags_apply_to_every_figure(self, tmp_path, capsys):
        """--workers/--cache-dir route *every* experiment through the
        scheduler — welfare (one welfare_report job) included."""
        from repro.experiments.run import main

        assert main(["run", "welfare", "--workers", "2"]) == 0
        assert "deadweight" in capsys.readouterr().out
        assert (
            main(["run", "welfare", "--cache-dir", str(tmp_path)]) == 0
        )
        assert len(list(tmp_path.glob("*.json"))) == 1
