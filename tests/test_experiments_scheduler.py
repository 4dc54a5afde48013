"""Job executor tests: jobs, hashing, codecs, and QueueScheduler's
caching, resume, local fan-out and hang guard.

Every test runs under a signal-based watchdog (see ``_watchdog``) so a hung
drain or local worker fails the test fast instead of stalling the suite —
the same guard the CI job enforces with ``pytest-timeout``.
"""

import json
import multiprocessing
import os
import pathlib
import shutil
import signal
import tempfile
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
    config_from_payload,
    config_to_payload,
    execute_job,
    market_from_payload,
    market_to_payload,
    register_job_kind,
)
from repro.queue import ArtifactStore, JobQueue, QueueScheduler, QueueWorker
from repro.utils.serialization import load_json, save_json

WATCHDOG_SECONDS = 120.0


@pytest.fixture(autouse=True)
def _watchdog():
    """Per-test timeout guard: a hung drain fails fast, not forever."""
    if not hasattr(signal, "SIGALRM"):  # non-POSIX fallback: no guard
        yield
        return

    def _timed_out(signum, frame):
        raise TimeoutError(
            f"scheduler test exceeded the {WATCHDOG_SECONDS}s watchdog — "
            "a drain loop or local worker is probably hung"
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
        assert base.job_hash() != Job("market_scheme", {"x": 1}).job_hash()

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


class TestResultEntries:
    def test_concurrent_writers_never_clobber(self, tmp_path):
        """Many writers racing on one entry (the at-least-once execution
        story) each use a unique fsync-ed temp name, so the visible entry
        is always one writer's complete output and no temp debris stays."""
        import concurrent.futures

        job = _cell_jobs(_markets(1))[0]
        result = {"price": 1.25, "msp_utility": 2.5, "capacity_binding": False}
        store = ArtifactStore(tmp_path)
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda _: store.put(job, result), range(64)))
        assert store.get(job).result == result
        assert store.hashes() == [job.job_hash()]
        assert list(tmp_path.glob("*.tmp")) == []

    def test_byte_corrupt_entry_is_a_miss(self, tmp_path):
        """Undecodable bytes in an entry (a torn or bit-rotted file) are a
        cache miss like truncated JSON, not a UnicodeDecodeError."""
        job = _cell_jobs(_markets(1))[0]
        store = ArtifactStore(tmp_path)
        target = store.put(job, execute_job(job)).path
        data = bytearray(target.read_bytes())
        data[10:12] = b"\xff\xfe"
        target.write_bytes(bytes(data))
        assert store.get(job) is None


def _entries(queue_dir):
    """The stored result entries of a queue directory."""
    return sorted((pathlib.Path(queue_dir) / "results").glob("*.json"))


def _no_local_workers_left():
    return multiprocessing.active_children() == []


class TestQueueScheduler:
    def test_invalid_knobs_rejected(self, tmp_path):
        with pytest.raises(ExperimentError, match="workers"):
            QueueScheduler(tmp_path, workers=0)
        with pytest.raises(ExperimentError, match="job_timeout"):
            QueueScheduler(tmp_path, job_timeout=0.0)

    def test_inline_drain_matches_direct_execution(self, tmp_path):
        markets = _markets()
        scheduler = QueueScheduler(tmp_path, poll_interval=0.01)
        results = scheduler.run(_cell_jobs(markets))
        for market, payload in zip(markets, results):
            equilibrium = market.equilibrium()
            assert payload["price"] == equilibrium.price
            assert payload["msp_utility"] == equilibrium.msp_utility
        assert scheduler.jobs_executed == len(markets)
        assert scheduler.cache_hits == 0
        assert scheduler.job_sources == ["executed"] * len(markets)
        # Nothing left behind: no pending files, no leases, all stored.
        assert scheduler.queue.outstanding() == []
        assert scheduler.queue.stats().pending == 0

    def test_local_workers_match_in_process(self, tmp_path):
        jobs = _cell_jobs(_markets(4))
        sequential = [execute_job(job) for job in jobs]
        scheduler = QueueScheduler(tmp_path, workers=2, poll_interval=0.01)
        assert scheduler.run(jobs) == sequential
        assert scheduler.jobs_executed == len(jobs)
        assert _no_local_workers_left()

    def test_duplicate_jobs_collapse_to_one_execution(self, tmp_path):
        market = StackelbergMarket(paper_fig2_population())
        scheduler = QueueScheduler(tmp_path, poll_interval=0.01)
        results = scheduler.run(_cell_jobs([market, market, market]))
        assert scheduler.jobs_executed == 1
        assert results[0] == results[1] == results[2]
        assert len(scheduler.queue.store) == 1

    def test_store_layout_and_resume_hits_no_worker(
        self, tmp_path, monkeypatch
    ):
        jobs = _cell_jobs(_markets())
        first = QueueScheduler(tmp_path, workers=2, poll_interval=0.01)
        baseline = first.run(jobs)
        assert first.jobs_executed == len(jobs)
        for job in jobs:
            entry = load_json(tmp_path / "results" / f"{job.job_hash()}.json")
            assert entry["job"] == job.spec()
            assert "result" in entry
        # Resume: no job function may run — not inline, not in a local
        # worker (a forked worker would inherit the patch).
        monkeypatch.setattr(
            "repro.queue.worker.execute_job",
            lambda job, artifact_dir=None: pytest.fail(
                "resume must not execute jobs"
            ),
        )
        resumed = QueueScheduler(tmp_path, workers=2, poll_interval=0.01)
        assert resumed.run(jobs) == baseline
        assert resumed.cache_hits == len(jobs)
        assert resumed.jobs_executed == 0
        assert resumed.job_sources == ["cache"] * len(jobs)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_resume_false_recomputes_and_overwrites(self, tmp_path, workers):
        jobs = _cell_jobs(_markets(1))
        QueueScheduler(tmp_path, poll_interval=0.01).run(jobs)
        entry_path = _entries(tmp_path)[0]
        entry = load_json(entry_path)
        entry["result"]["price"] = -1.0  # poison the stored result
        entry_path.write_text(json.dumps(entry))
        fresh = QueueScheduler(
            tmp_path, workers=workers, resume=False, poll_interval=0.01
        )
        results = fresh.run(jobs)
        assert fresh.jobs_executed == 1
        assert fresh.cache_hits == 0
        assert results[0]["price"] != -1.0
        assert load_json(entry_path)["result"] == results[0]
        assert _no_local_workers_left()

    def test_corrupt_entry_recomputes(self, tmp_path):
        jobs = _cell_jobs(_markets(1))
        baseline = QueueScheduler(tmp_path, poll_interval=0.01).run(jobs)
        path = _entries(tmp_path)[0]
        path.write_text('{"job": {"kind": "trunc')  # killed mid-write
        again = QueueScheduler(tmp_path, poll_interval=0.01)
        assert again.run(jobs) == baseline
        assert again.jobs_executed == 1
        assert load_json(path)["result"] == baseline[0]

    def test_entry_landing_after_the_miss_is_kept(self, tmp_path, monkeypatch):
        """A producer's entry written between this run's store read and
        its enqueue is served, never deleted and recomputed."""
        jobs = _cell_jobs(_markets(1))
        (stored,) = QueueScheduler(tmp_path, poll_interval=0.01).run(jobs)
        entry_bytes = _entries(tmp_path)[0].read_bytes()
        _entries(tmp_path)[0].unlink()
        scheduler = QueueScheduler(tmp_path, poll_interval=0.01)
        store = scheduler.queue.store
        real_get = store.get
        calls = []

        def get_then_another_producer_writes(job):
            artifact = real_get(job)
            if not calls:
                store.path_for(job).write_bytes(entry_bytes)
            calls.append(job)
            return artifact

        monkeypatch.setattr(store, "get", get_then_another_producer_writes)
        monkeypatch.setattr(
            "repro.queue.worker.execute_job",
            lambda job, artifact_dir=None: pytest.fail("must not recompute"),
        )
        assert scheduler.run(jobs) == [stored]
        assert scheduler.cache_hits == 1
        assert scheduler.jobs_executed == 0

    def test_entry_dropped_after_the_drain_is_recomputed(self, tmp_path):
        """An entry another producer drops (resume=False) after this
        run's drain saw it stored is still outstanding: the run computes
        it again instead of raising."""
        jobs = _cell_jobs(_markets(2))
        scheduler = QueueScheduler(tmp_path, poll_interval=0.01)
        real_drain = scheduler._drain
        drains = []

        def drain_then_drop(batch):
            produced = real_drain(batch)
            if not drains:
                victim = next(iter(batch))
                scheduler.queue.store.path_for(victim).unlink()
                produced.pop(victim, None)
            drains.append(sorted(batch))
            return produced

        scheduler._drain = drain_then_drop
        results = scheduler.run(jobs)
        assert results == [execute_job(job) for job in jobs]
        assert len(drains) == 2 and len(drains[1]) == 1
        assert len(scheduler.queue.store) == 2

    def test_stopped_workers_leave_no_bookkeeping(self, tmp_path):
        """The inline worker and the local worker processes retire when
        run() returns: no heartbeat, no lease directory, zero workers in
        the census."""
        scheduler = QueueScheduler(tmp_path, workers=3, poll_interval=0.01)
        scheduler.run(_cell_jobs(_markets(4)))
        assert _no_local_workers_left()
        assert list(scheduler.queue.heartbeats_dir.iterdir()) == []
        assert list(scheduler.queue.leases_dir.iterdir()) == []
        assert scheduler.queue.stats().workers == 0

    def test_foreign_entry_raises(self, tmp_path):
        jobs = _cell_jobs(_markets(1))
        QueueScheduler(tmp_path, poll_interval=0.01).run(jobs)
        path = _entries(tmp_path)[0]
        entry = load_json(path)
        entry["job"]["payload"]["market"]["config"]["unit_cost"] = 99.0
        path.write_text(json.dumps(entry))
        with pytest.raises(ExperimentError, match="different job spec"):
            QueueScheduler(tmp_path).run(jobs)

    def test_mismatch_error_distinguishes_foreign_from_collision(
        self, tmp_path
    ):
        """A wrong spec in a hash-named slot has two explanations — a
        foreign file dropped into the directory, or a genuine SHA-256
        collision — and the error must say which, naming both the found
        and the expected job kinds (the operator's first question)."""
        jobs = _cell_jobs(_markets(1))
        QueueScheduler(tmp_path, poll_interval=0.01).run(jobs)
        path = _entries(tmp_path)[0]
        entry = load_json(path)
        # A foreign file: another kind's entry occupying this job's slot.
        entry["job"] = {"kind": "market_scheme", "payload": {"seed": 0}}
        path.write_text(json.dumps(entry))
        with pytest.raises(ExperimentError) as excinfo:
            QueueScheduler(tmp_path).run(jobs)
        message = str(excinfo.value)
        assert "found kind 'market_scheme'" in message
        assert "expected kind 'equilibrium_cell'" in message
        assert "foreign file" in message
        assert "SHA-256 collision" not in message
        # An unparseable recorded spec is also a foreign file, not a crash
        # inside the error path.
        entry["job"] = {"kind": "equilibrium_cell"}  # no payload: malformed
        path.write_text(json.dumps(entry))
        with pytest.raises(ExperimentError, match="foreign file"):
            QueueScheduler(tmp_path).run(jobs)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_job_propagates(self, tmp_path, workers):
        """A job that raises surfaces from run() (here the inline worker
        re-raises it) instead of hanging, and no local worker survives."""
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
        scheduler = QueueScheduler(
            tmp_path, workers=workers, poll_interval=0.01
        )
        with pytest.raises(ValueError, match="unknown scheme"):
            scheduler.run([job])
        assert scheduler.queue.failure_path(job.job_hash()).exists()
        assert _no_local_workers_left()

    def test_scheduler_counts_work_done_by_fleet(self, tmp_path):
        """jobs_executed counts the batch's misses and
        jobs_completed_elsewhere attributes work the inline worker did
        not do."""
        jobs = _cell_jobs(_markets(2))
        fleet_queue = JobQueue(tmp_path)
        fleet_queue.enqueue_many(jobs[:1])
        QueueWorker(fleet_queue, worker_id="fleet", poll_interval=0.01).run(
            drain=True
        )
        scheduler = QueueScheduler(tmp_path, poll_interval=0.01)
        scheduler.run(jobs)
        assert scheduler.cache_hits == 1
        assert scheduler.jobs_executed == 1
        assert scheduler.jobs_completed_elsewhere == 0


def _sleepy_job(payload):
    time.sleep(float(payload["seconds"]))
    return {"slept": payload["seconds"], "pid": os.getpid()}


def _failing_job(payload):
    raise RuntimeError(f"job failed on purpose: {payload}")


# Dotted paths: the scheduler replays these registrations in its local
# worker processes, so they resolve under any start method.
register_job_kind("test_sleepy", f"{__name__}:_sleepy_job")
register_job_kind("test_failing", f"{__name__}:_failing_job")
# A callable registration only reaches this process (and forked workers).
register_job_kind("test_sleepy_inline", _sleepy_job)


class TestJobTimeout:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_hung_job_fails_fast(self, tmp_path, workers):
        """With job_timeout every executor is a local process the
        scheduler can stop: a hung job fails the run fast, is recorded as
        a failure (toward quarantine), and leaves no process behind."""
        jobs = [
            Job("test_sleepy", {"seconds": 3.0, "tag": tag})
            for tag in ("a", "b")
        ]
        scheduler = QueueScheduler(
            tmp_path, workers=workers, job_timeout=0.3, poll_interval=0.01
        )
        start = time.perf_counter()
        with pytest.raises(ExperimentError, match="job_timeout"):
            scheduler.run(jobs)
        assert time.perf_counter() - start < 2.5
        assert _no_local_workers_left()
        failures = [
            json.loads(line)
            for job in jobs
            if scheduler.queue.failure_path(job.job_hash()).exists()
            for line in scheduler.queue.failure_path(job.job_hash())
            .read_text()
            .splitlines()
        ]
        assert len(failures) == 1
        assert "job_timeout" in failures[0]["traceback"]

    def test_foreign_lease_is_not_timed(self, tmp_path):
        """Only this run's local workers are timed. A killed run's lease,
        not yet reaped, outlives job_timeout without failing the job: it
        requeues after lease_ttl and the run completes."""
        job = Job("test_sleepy", {"seconds": 0.0, "tag": "stale"})
        queue = JobQueue(tmp_path, lease_ttl=1.0)
        queue.enqueue(job)
        assert queue.lease("killed-run") is not None  # beat once, then gone
        scheduler = QueueScheduler(
            tmp_path,
            lease_ttl=1.0,
            workers=1,
            job_timeout=0.3,
            poll_interval=0.01,
        )
        assert scheduler.run([job])[0]["slept"] == 0.0
        assert not queue.failure_path(job.job_hash()).exists()
        assert _no_local_workers_left()

    def test_registered_path_kind_runs_in_local_workers(self, tmp_path):
        """Under job_timeout no job runs inline, so every result comes
        from a local worker process that resolved the dotted-path kind."""
        jobs = [
            Job("test_sleepy", {"seconds": 0.0, "tag": tag})
            for tag in ("a", "b", "c")
        ]
        scheduler = QueueScheduler(
            tmp_path, workers=2, job_timeout=60.0, poll_interval=0.01
        )
        results = scheduler.run(jobs)
        assert [result["slept"] for result in results] == [0.0] * 3
        assert all(result["pid"] != os.getpid() for result in results)
        assert scheduler.jobs_executed == 3
        assert scheduler.jobs_completed_elsewhere == 3
        assert _no_local_workers_left()

    def test_failing_job_under_timeout_does_not_hang(self, tmp_path):
        """A local worker exits after a job failure; once every local
        worker is gone with the batch outstanding, the run raises."""
        job = Job("test_failing", {"tag": "x"})
        scheduler = QueueScheduler(
            tmp_path, workers=1, job_timeout=60.0, poll_interval=0.01
        )
        with pytest.raises(ExperimentError, match="every local worker exited"):
            scheduler.run([job])
        assert scheduler.queue.failure_path(job.job_hash()).exists()
        assert _no_local_workers_left()

    def test_registered_kind_runs_in_process(self, tmp_path):
        result = QueueScheduler(tmp_path, poll_interval=0.01).run(
            [Job("test_sleepy_inline", {"seconds": 0.0})]
        )
        assert result == [{"slept": 0.0, "pid": os.getpid()}]

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
        scheduler = QueueScheduler(tmp_path, workers=2, poll_interval=0.01)
        sharded = fig3_cost_sweep(
            config, costs=self.COSTS, schemes=self.SCHEMES, scheduler=scheduler
        )
        assert self._equal(sequential, sharded, self.COSTS)

    def test_sharded_fig3_vmus_equals_sequential_bitwise(self, tmp_path):
        config = ExperimentConfig.smoke()
        counts = (1, 3)
        params = {"config": config, "counts": counts, "schemes": self.SCHEMES}
        sequential = run_experiment("fig3_vmus", params)
        sharded = run_experiment(
            "fig3_vmus",
            params,
            scheduler=QueueScheduler(tmp_path, workers=2, poll_interval=0.01),
        )
        assert self._equal(sequential, sharded, counts)

    def test_killed_run_resumes_from_store(self, tmp_path):
        """Acceptance: a killed-and-resumed run completes from the store
        without re-running finished jobs."""
        config = ExperimentConfig.smoke()
        scheduler = QueueScheduler(tmp_path, poll_interval=0.01)
        baseline = fig3_cost_sweep(
            config, costs=self.COSTS, schemes=("drl",), scheduler=scheduler
        )
        stored = _entries(tmp_path)
        assert len(stored) == len(self.COSTS)
        # Simulate a run killed after finishing only the first market.
        stored[1].unlink()
        resumed_scheduler = QueueScheduler(tmp_path, poll_interval=0.01)
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

    def test_store_is_relocatable(self, tmp_path):
        """Job hashes must not depend on the queue directory: a store
        written under one path (DRL checkpoint targets included) resumes
        under any other — the cross-machine sharing contract."""
        config = ExperimentConfig.smoke()
        first_dir = tmp_path / "first"
        baseline = fig3_cost_sweep(
            config,
            costs=self.COSTS,
            schemes=("drl",),
            scheduler=QueueScheduler(first_dir, poll_interval=0.01),
        )
        moved_dir = tmp_path / "elsewhere" / "moved"
        moved_dir.parent.mkdir()
        shutil.move(first_dir, moved_dir)
        relocated = QueueScheduler(moved_dir, poll_interval=0.01)
        resumed = fig3_cost_sweep(
            config, costs=self.COSTS, schemes=("drl",), scheduler=relocated
        )
        assert relocated.jobs_executed == 0
        assert relocated.cache_hits == len(self.COSTS)
        for cost in self.COSTS:
            assert vars(resumed.evaluations[cost]["drl"]) == vars(
                baseline.evaluations[cost]["drl"]
            )
        for artifact in relocated.queue.store:
            assert artifact.checkpoint().parent.parent == moved_dir / "results"
            assert artifact.checkpoint().exists()

    def test_drl_checkpoints_handed_home(self, tmp_path):
        """Each per-market DRL job parks its trained agent in the store's
        checkpoints/ dir, loadable (and then deletable) via load_agent;
        stored results record the store-*relative* path so a shared or
        moved store still resolves."""
        config = ExperimentConfig.smoke()
        scheduler = QueueScheduler(tmp_path, workers=2, poll_interval=0.01)
        fig3_cost_sweep(
            config, costs=self.COSTS, schemes=("drl",), scheduler=scheduler
        )
        store_root = tmp_path / "results"
        checkpoints = sorted((store_root / "checkpoints").glob("*.npz"))
        assert len(checkpoints) == len(self.COSTS)
        for entry_path in _entries(tmp_path):
            recorded = load_json(entry_path)["result"]["checkpoint"]
            assert not pathlib.PurePath(recorded).is_absolute()
            assert (store_root / recorded).exists()
        for checkpoint in checkpoints:
            agent, scaler, meta = load_agent(checkpoint)
            assert meta["history_length"] == config.history_length
            assert scaler.high > scaler.low
            checkpoint.unlink()  # the handle was closed: deletable


class TestScheduledSweeps:
    """A sweep fanned over local workers equals the in-process run, whose
    rows ``test_experiments_api.py`` pins against one stacked solve of
    the sweep's markets."""

    @staticmethod
    def _fanned_and_in_process(name, params, queue_dir):
        fanned = run_experiment(
            name,
            params,
            scheduler=QueueScheduler(queue_dir, workers=2, poll_interval=0.01),
        )
        return fanned, run_experiment(name, params)

    def test_distance_sweep_matches_stacked(self, tmp_path):
        fanned, in_process = self._fanned_and_in_process(
            "distance_sweep", {}, tmp_path
        )
        assert fanned.prices == in_process.prices
        assert fanned.msp_utilities == in_process.msp_utilities

    def test_fading_sweep_matches_stacked(self, tmp_path):
        fanned, in_process = self._fanned_and_in_process(
            "fading_sweep", {"draws": 8, "seed": 1}, tmp_path
        )
        assert fanned.prices == in_process.prices
        assert fanned.utilities == in_process.utilities

    def test_population_sweep_matches_stacked(self, tmp_path):
        fanned, in_process = self._fanned_and_in_process(
            "population_sweep", {"draws": 5, "seed": 2}, tmp_path
        )
        assert fanned.per_draw == in_process.per_draw

    def test_multiseed_resumes_through_store(self, tmp_path):
        params = {
            "config": ExperimentConfig.smoke(),
            "seeds": (0, 1, 2, 3),
            "schemes": ("greedy", "random", "equilibrium"),
        }
        sequential = run_experiment("multiseed", params)
        scheduler = QueueScheduler(tmp_path, workers=2, poll_interval=0.01)
        fanned = run_experiment("multiseed", params, scheduler=scheduler)
        assert fanned == sequential
        assert scheduler.jobs_executed == 4
        resumed_scheduler = QueueScheduler(
            tmp_path, workers=2, poll_interval=0.01
        )
        resumed = run_experiment(
            "multiseed", params, scheduler=resumed_scheduler
        )
        assert resumed == sequential
        assert resumed_scheduler.jobs_executed == 0
        assert resumed_scheduler.cache_hits == 4


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
                "--queue-dir", str(tmp_path / "queue"),
                "--output", str(tmp_path / "out"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 job(s): 2 executed, 0 from cache" in out
        results = load_json(tmp_path / "out" / "schedule.json")
        for market, entry in zip(markets, results):
            assert entry["result"]["price"] == market.equilibrium().price

    def test_schedule_resumes_from_store(self, tmp_path, capsys):
        jobs_file, _ = self._jobs_file(tmp_path)
        argv = [
            "--jobs", str(jobs_file),
            "--queue-dir", str(tmp_path / "queue"),
        ]
        assert schedule_main(argv) == 0
        capsys.readouterr()
        assert schedule_main(argv) == 0
        out = capsys.readouterr().out
        assert "2 job(s): 0 executed, 2 from cache" in out
        assert out.count("cache") >= 2

    def test_schedule_without_dir_uses_a_removed_temporary_queue(
        self, tmp_path, capsys, monkeypatch
    ):
        """--workers N or --job-timeout without --queue-dir run over a
        temporary queue directory that is gone after the run."""
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        jobs_file, _ = self._jobs_file(tmp_path)
        for flags in (["--workers", "2"], ["--job-timeout", "60"]):
            assert schedule_main(["--jobs", str(jobs_file), *flags]) == 0
            assert "2 job(s): 2 executed, 0 from cache" in (
                capsys.readouterr().out
            )
            assert list(scratch.iterdir()) == []
        assert _no_local_workers_left()

    def test_schedule_rejects_bad_inputs(self, tmp_path):
        jobs_file = save_json(tmp_path / "jobs.json", {"kind": "x"})
        with pytest.raises(SystemExit):
            schedule_main(["--jobs", str(jobs_file)])
        good = save_json(tmp_path / "good.json", [])
        with pytest.raises(SystemExit):
            schedule_main(["--jobs", str(good), "--workers", "0"])
        with pytest.raises(SystemExit):
            schedule_main(["--jobs", str(good), "--job-timeout", "0"])

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
        """--workers/--queue-dir route *every* experiment through the
        queue — welfare (one welfare_report job) included."""
        from repro.experiments.run import main

        assert main(["run", "welfare", "--workers", "2"]) == 0
        assert "deadweight" in capsys.readouterr().out
        assert (
            main(["run", "welfare", "--queue-dir", str(tmp_path)]) == 0
        )
        assert len(_entries(tmp_path)) == 1
