"""Queue subsystem tests: leasing, heartbeats, reaping, artifacts,
and the queue-backed scheduler's bitwise-equality contract.

Lease-expiry paths run on *fake time* (the ``now=`` injection points on
``heartbeat`` / ``heartbeat_age`` / ``reap``) so a 60-second TTL tests in
milliseconds; the one place real time matters — a survivor worker reaping
a worker whose beacon was staled into the past — still completes
instantly because reap compares the beacon's recorded stamp against real
wall clock. The subprocess/SIGKILL end of kill-resume lives in
``test_queue_smoke.py``.
"""

import builtins
import io
import json
import os
import signal
import time
from pathlib import Path

import pytest

from repro.core.stackelberg import StackelbergMarket
from repro.entities.vmu import paper_fig2_population, sample_population
from repro.errors import ExperimentError
from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.run import schedule_main, worker_main
from repro.experiments.scheduler import Job, execute_job, market_to_payload
from repro.queue import (
    Artifact,
    ArtifactStore,
    JobQueue,
    QueueScheduler,
    QueueWorker,
)
from repro.utils.serialization import load_json, save_json

WATCHDOG_SECONDS = 120.0


@pytest.fixture(autouse=True)
def _watchdog():
    """Per-test timeout guard: a stuck wait loop fails fast, not forever."""
    if not hasattr(signal, "SIGALRM"):  # non-POSIX fallback: no guard
        yield
        return

    def _timed_out(signum, frame):
        raise TimeoutError(
            f"queue test exceeded the {WATCHDOG_SECONDS}s watchdog — "
            "a drain/wait loop is probably stuck"
        )

    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.setitimer(signal.ITIMER_REAL, WATCHDOG_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _cell_jobs(count=3):
    return [
        Job(
            "equilibrium_cell",
            {
                "market": market_to_payload(
                    StackelbergMarket(sample_population(3, seed=seed))
                )
            },
        )
        for seed in range(count)
    ]


def _drain(queue, worker_id="test-worker"):
    """Run one in-process worker until the queue is empty."""
    worker = QueueWorker(queue, worker_id=worker_id, poll_interval=0.01)
    return worker.run(drain=True)


class TestJobQueue:
    def test_rejects_nonpositive_ttl(self, tmp_path):
        with pytest.raises(ExperimentError, match="lease_ttl"):
            JobQueue(tmp_path, lease_ttl=0.0)

    def test_enqueue_lease_ack_lifecycle(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = _cell_jobs(1)[0]
        assert queue.enqueue(job) is True
        assert queue.pending_hashes() == [job.job_hash()]
        leased = queue.lease("w1")
        assert leased is not None
        assert leased.job_hash == job.job_hash()
        assert leased.job.spec() == job.spec()
        assert queue.pending_hashes() == []
        assert queue.leased_hashes() == {"w1": [job.job_hash()]}
        queue.store.put(leased.job, execute_job(leased.job))
        queue.ack(leased)
        assert queue.leased_hashes() == {"w1": []}
        assert queue.outstanding() == []

    def test_enqueue_dedupes_pending_leased_and_stored(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = _cell_jobs(1)[0]
        assert queue.enqueue(job) is True
        assert queue.enqueue(job) is False  # already pending
        leased = queue.lease("w1")
        assert queue.enqueue(job) is False  # leased
        queue.store.put(job, execute_job(job))
        queue.ack(leased)
        assert queue.enqueue(job) is False  # stored
        assert queue.enqueue_many(_cell_jobs(2)) == 1  # job 0 is stored

    def test_lease_empty_queue_returns_none(self, tmp_path):
        assert JobQueue(tmp_path).lease("w1") is None

    def test_two_workers_never_hold_the_same_job(self, tmp_path):
        queue = JobQueue(tmp_path)
        queue.enqueue_many(_cell_jobs(3))
        held = []
        for worker_id in ("a", "b", "c", "d"):
            leased = queue.lease(worker_id)
            if leased is not None:
                held.append(leased.job_hash)
        assert len(held) == 3
        assert len(set(held)) == 3
        assert queue.pending_hashes() == []

    def test_lease_rescans_pending_only_when_its_listing_runs_dry(
        self, tmp_path
    ):
        """A spec enqueued after the listing waits for the listing to run
        dry, and a listed spec another process took is skipped."""
        first, second, third = sorted(
            _cell_jobs(3), key=lambda job: job.job_hash()
        )
        queue = JobQueue(tmp_path)
        queue.enqueue_many([first, second])
        assert queue.lease("w1").job_hash == first.job_hash()
        queue.enqueue(third)
        # Another process's queue takes the next listed spec.
        assert JobQueue(tmp_path).lease("w2").job_hash == second.job_hash()
        assert queue.lease("w1").job_hash == third.job_hash()
        assert queue.lease("w1") is None

    def test_release_returns_job_to_pending(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = _cell_jobs(1)[0]
        queue.enqueue(job)
        leased = queue.lease("w1")
        queue.release(leased)
        assert queue.pending_hashes() == [job.job_hash()]
        assert queue.leased_hashes()["w1"] == []

    def test_worker_id_must_be_a_directory_name(self, tmp_path):
        queue = JobQueue(tmp_path)
        for bad in ("", "a/b", "..", "a\\b"):
            with pytest.raises(ExperimentError, match="worker id"):
                queue.heartbeat(bad)

    def test_malformed_pending_spec_is_quarantined(self, tmp_path):
        queue = JobQueue(tmp_path)
        good = _cell_jobs(1)[0]
        queue.enqueue(good)
        bad = queue.pending_dir / ("0" * 64 + ".json")
        bad.write_text('{"kind": "x"}')  # missing payload
        with pytest.raises(ExperimentError, match="quarantined"):
            while queue.lease("w1") is not None:
                pass
        rejected = list(queue.quarantine_dir.glob("*.rejected"))
        assert len(rejected) == 1
        assert list(queue.leases_dir.glob("*/*.rejected")) == []
        # The queue is not wedged: the good job still leases.
        assert queue.pending_hashes() in ([good.job_hash()], [])
        remaining = queue.lease("w1")
        if remaining is not None:
            assert remaining.job_hash == good.job_hash()
        _assert_retired_cleanly(queue, "w1")

    def test_byte_corrupt_pending_spec_is_quarantined(self, tmp_path):
        """Undecodable bytes in a spec are parked as .rejected with an
        ExperimentError, not a bare UnicodeDecodeError that strands the
        spec in the worker's lease directory."""
        queue = JobQueue(tmp_path)
        name = "0" * 64 + ".json"
        (queue.pending_dir / name).write_bytes(b'{"kind": "\xff"}')
        with pytest.raises(ExperimentError, match="quarantined"):
            queue.lease("w1")
        assert not (queue.leases_dir / "w1" / name).exists()
        assert (queue.quarantine_dir / name).with_suffix(".rejected").exists()
        assert queue.lease("w1") is None
        _assert_retired_cleanly(queue, "w1")

    def test_spec_under_another_jobs_hash_is_rejected(self, tmp_path):
        """A pending file holding a spec that does not hash to its own
        name (a foreign or tampered file) is parked like a malformed one:
        its job never runs, and is never stored, under another's hash."""
        mine, foreign = _cell_jobs(2)
        queue = JobQueue(tmp_path)
        slot = queue.pending_dir / f"{mine.job_hash()}.json"
        slot.write_text(json.dumps(foreign.spec()))
        scheduler = QueueScheduler(tmp_path, poll_interval=0.01)
        with pytest.raises(ExperimentError, match="hashes to"):
            scheduler.run([mine])
        assert queue.store.hashes() == []
        assert slot.with_suffix(".rejected").name in {
            path.name for path in queue.quarantine_dir.iterdir()
        }
        assert (queue.stats().workers, queue.stats().quarantined) == (0, 1)
        # The slot is free again: a rerun executes the job itself.
        assert scheduler.run([mine]) == [execute_job(mine)]
        assert scheduler.jobs_executed == 1


def _assert_retired_cleanly(queue, worker_id):
    """Retiring ``worker_id`` leaves neither its heartbeat nor its lease
    directory behind (a rejected spec parked inside it would pin both)."""
    queue.retire(worker_id)
    assert not (queue.heartbeats_dir / f"{worker_id}.json").exists()
    assert not (queue.leases_dir / worker_id).exists()
    assert queue.stats().workers == 0


class TestHeartbeatsAndReaping:
    def test_heartbeat_age_uses_recorded_stamp(self, tmp_path):
        queue = JobQueue(tmp_path, lease_ttl=60.0)
        now = 1_000_000.0
        queue.heartbeat("w1", now=now - 42.0)
        assert queue.heartbeat_age("w1", now=now) == pytest.approx(42.0)
        assert queue.heartbeat_age("never-beat", now=now) is None

    def test_heartbeat_age_falls_back_to_mtime(self, tmp_path):
        queue = JobQueue(tmp_path, lease_ttl=60.0)
        path = queue.heartbeat("w1")
        path.write_text("not json")
        age = queue.heartbeat_age("w1")
        assert age is not None and age < 60.0

    def test_lease_beats_only_when_a_beat_is_due(self, tmp_path, monkeypatch):
        """lease() rewrites the beacon when this queue's last beat for the
        worker is older than the heartbeat interval — a stale stamp set
        with now= included — and otherwise leaves it to the heartbeat
        thread."""
        queue = JobQueue(tmp_path, lease_ttl=60.0)
        queue.enqueue_many(_cell_jobs(3))
        beats = []
        real_heartbeat = JobQueue.heartbeat

        def counted_heartbeat(self, worker_id, **kwargs):
            beats.append(kwargs.get("now"))
            return real_heartbeat(self, worker_id, **kwargs)

        monkeypatch.setattr(JobQueue, "heartbeat", counted_heartbeat)
        queue.lease("w1")
        queue.lease("w1")
        assert beats == [None]
        queue.heartbeat("w1", now=time.time() - 2 * queue.heartbeat_interval)
        queue.lease("w1")
        assert beats[-1] is None and len(beats) == 3
        assert queue.heartbeat_age("w1") < queue.heartbeat_interval

    def test_lease_after_retire_beats_again(self, tmp_path):
        """Retiring a worker drops its beacon, so its next lease writes a
        new one instead of holding a job with no heartbeat."""
        queue = JobQueue(tmp_path, lease_ttl=60.0)
        queue.enqueue_many(_cell_jobs(1))
        leased = queue.lease("w1")
        assert queue.retire("w1") == [leased.job_hash]
        assert queue.heartbeat_age("w1") is None
        assert queue.lease("w1").job_hash == leased.job_hash
        assert queue.heartbeat_age("w1") is not None
        assert queue.reap() == []

    def test_reap_requeues_only_stale_workers(self, tmp_path):
        queue = JobQueue(tmp_path, lease_ttl=60.0)
        jobs = _cell_jobs(2)
        queue.enqueue_many(jobs)
        now = 1_000_000.0
        dead = queue.lease("dead")
        live = queue.lease("live")
        # lease() writes a fresh beacon; stale only the dead worker's.
        queue.heartbeat("dead", now=now - 61.0)
        queue.heartbeat("live", now=now - 59.0)
        requeued = queue.reap(now=now)
        assert requeued == [dead.job_hash]
        assert queue.pending_hashes() == [dead.job_hash]
        assert queue.leased_hashes() == {"live": [live.job_hash]}
        # The dead worker's bookkeeping is retired with its leases.
        assert not (queue.leases_dir / "dead").exists()
        assert not (queue.heartbeats_dir / "dead.json").exists()

    def test_reap_within_ttl_is_a_noop(self, tmp_path):
        queue = JobQueue(tmp_path, lease_ttl=60.0)
        queue.enqueue_many(_cell_jobs(1))
        now = 1_000_000.0
        leased = queue.lease("w1")
        queue.heartbeat("w1", now=now)
        assert queue.reap(now=now + 59.0) == []
        assert queue.leased_hashes() == {"w1": [leased.job_hash]}

    def test_reap_treats_missing_heartbeat_as_dead(self, tmp_path):
        queue = JobQueue(tmp_path, lease_ttl=60.0)
        queue.enqueue_many(_cell_jobs(1))
        leased = queue.lease("w1")
        (queue.heartbeats_dir / "w1.json").unlink()
        assert queue.reap() == [leased.job_hash]
        assert queue.pending_hashes() == [leased.job_hash]

    def test_retire_requeues_a_stopped_workers_leases(self, tmp_path):
        """A worker known to have stopped is retired at once, with a
        fresh heartbeat: its leases requeue and its bookkeeping goes."""
        queue = JobQueue(tmp_path, lease_ttl=60.0)
        queue.enqueue_many(_cell_jobs(2))
        held = queue.lease("stopped")
        other = queue.lease("other")
        assert queue.retire("stopped") == [held.job_hash]
        assert queue.pending_hashes() == [held.job_hash]
        assert queue.leased_hashes() == {"other": [other.job_hash]}
        assert not (queue.leases_dir / "stopped").exists()
        assert not (queue.heartbeats_dir / "stopped.json").exists()
        assert queue.retire("never-ran") == []

    def test_worker_retires_when_it_stops(self, tmp_path):
        queue = JobQueue(tmp_path, lease_ttl=60.0)
        queue.enqueue_many(_cell_jobs(2))
        assert _drain(queue, worker_id="w1").executed == 2
        assert queue.stats().workers == 0
        assert list(queue.heartbeats_dir.iterdir()) == []

    def test_requeued_job_completes_on_another_worker(self, tmp_path):
        """Kill-resume, fake-killed: a worker leases a job and dies (its
        beacon staled into the past); a survivor reaps, re-leases, and
        completes it — the queue's end-to-end liveness contract."""
        queue = JobQueue(tmp_path, lease_ttl=60.0)
        job = _cell_jobs(1)[0]
        queue.enqueue(job)
        dead = queue.lease("dead")
        assert dead is not None
        queue.heartbeat("dead", now=time.time() - 120.0)  # SIGKILLed
        stats = _drain(queue, worker_id="survivor")
        assert stats.requeued == 1
        assert stats.executed == 1
        assert queue.outstanding() == []
        stored = queue.store.get(job)
        assert stored is not None
        assert stored.result == execute_job(job)

    def test_duplicate_execution_converges_on_one_result(self, tmp_path):
        """At-least-once execution, exactly-once results: a reaped-but-
        alive worker finishing late produces the identical entry, and a
        worker leasing an already-stored job acks without executing."""
        queue = JobQueue(tmp_path, lease_ttl=60.0)
        job = _cell_jobs(1)[0]
        queue.enqueue(job)
        slow = queue.lease("slow")
        queue.heartbeat("slow", now=time.time() - 120.0)
        requeued = queue.reap()
        assert requeued == [slow.job_hash]
        # The slow worker was only paused, not dead: it finishes anyway.
        queue.store.put(slow.job, execute_job(slow.job))
        queue.ack(slow)  # lease file already reaped away — harmless
        # The requeued duplicate is served by dedup, not re-execution.
        stats = _drain(queue, worker_id="survivor")
        assert stats.deduplicated == 1
        assert stats.executed == 0
        assert len(queue.store) == 1


class TestSpecFilesRoundTrip:
    """The on-disk queue spec files are the ``Job.spec()`` wire form."""

    def test_floats_survive_enqueue_lease_execute_bitwise(self, tmp_path):
        queue = JobQueue(tmp_path)
        payload = {
            "market": market_to_payload(
                StackelbergMarket(sample_population(3, seed=7))
            )
        }
        # Awkward floats that any rounding codec would mangle.
        payload["market"]["config"]["unit_cost"] = 0.1 + 0.2
        job = Job("equilibrium_cell", payload)
        queue.enqueue(job)
        on_disk = load_json(queue.pending_dir / f"{job.job_hash()}.json")
        assert Job.from_spec(on_disk).job_hash() == job.job_hash()
        leased = queue.lease("w1")
        assert leased.job.payload["market"]["config"]["unit_cost"] == 0.1 + 0.2
        direct = execute_job(job)
        queued = execute_job(leased.job)
        assert queued == direct  # bitwise: same floats in, same floats out

    def test_tampered_spec_with_unknown_keys_is_rejected(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = _cell_jobs(1)[0]
        queue.enqueue(job)
        path = queue.pending_dir / f"{job.job_hash()}.json"
        entry = load_json(path)
        entry["priority"] = 9  # not part of the wire form
        path.write_text(json.dumps(entry))
        with pytest.raises(ExperimentError, match="unknown key"):
            Job.from_spec(load_json(path))
        with pytest.raises(ExperimentError, match="quarantined"):
            queue.lease("w1")


class TestOlderFileLayouts:
    """Files are written as compact JSON; readers take any layout, so the
    indented specs and entries of earlier writers still serve."""

    @staticmethod
    def _indented(payload):
        return json.dumps(payload, indent=2) + "\n"

    def test_new_files_are_compact(self, tmp_path):
        queue = JobQueue(tmp_path)
        job = _cell_jobs(1)[0]
        queue.enqueue(job)
        spec_text = (queue.pending_dir / f"{job.job_hash()}.json").read_text()
        assert spec_text == json.dumps(job.spec(), separators=(",", ":")) + "\n"
        queue.store.put(job, execute_job(job))
        entry_text = queue.store.path_for(job).read_text()
        compact = json.dumps(json.loads(entry_text), separators=(",", ":"))
        assert entry_text == compact + "\n"

    def test_indented_entries_are_cache_hits(self, tmp_path, monkeypatch):
        jobs = _cell_jobs(3)
        direct = [execute_job(job) for job in jobs]
        store = JobQueue(tmp_path).store
        for job, result in zip(jobs, direct):
            store.path_for(job).write_text(
                self._indented({"job": job.spec(), "result": result})
            )
        monkeypatch.setattr(
            "repro.queue.worker.execute_job",
            lambda job, artifact_dir=None: pytest.fail("must not recompute"),
        )
        scheduler = QueueScheduler(tmp_path, poll_interval=0.01)
        assert scheduler.run(jobs) == direct
        assert scheduler.cache_hits == len(jobs)
        assert scheduler.jobs_executed == 0
        assert [a.job_hash for a in store] == sorted(
            job.job_hash() for job in jobs
        )

    def test_indented_pending_specs_lease_and_run(self, tmp_path):
        jobs = _cell_jobs(3)
        queue = JobQueue(tmp_path)
        for job in jobs:
            (queue.pending_dir / f"{job.job_hash()}.json").write_text(
                self._indented(job.spec())
            )
        assert _drain(queue).executed == len(jobs)
        for job in jobs:
            assert queue.store.get(job).result == execute_job(job)


class TestArtifactStore:
    def test_put_get_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        job = _cell_jobs(1)[0]
        result = execute_job(job)
        artifact = store.put(job, result)
        assert isinstance(artifact, Artifact)
        assert artifact.job_hash == job.job_hash()
        assert artifact.result == result
        assert artifact.spec() == job.spec()
        loaded = store.get(job)
        assert loaded is not None
        assert loaded.result == result
        assert store.contains(job)
        assert store.hashes() == [job.job_hash()]
        assert len(store) == 1

    def test_get_absent_returns_none(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get(_cell_jobs(1)[0]) is None
        assert store.load("f" * 64) is None
        assert store.hashes() == []

    def test_load_by_hash_verifies_embedded_provenance(self, tmp_path):
        store = ArtifactStore(tmp_path)
        job = _cell_jobs(1)[0]
        store.put(job, execute_job(job))
        loaded = store.load(job.job_hash())
        assert loaded.job.spec() == job.spec()
        # A foreign entry — spec does not hash to its own file name.
        foreign = store.path_for("a" * 64)
        save_json(foreign, {"job": job.spec(), "result": {"x": 1}})
        with pytest.raises(ExperimentError, match="foreign or tampered"):
            store.load("a" * 64)

    def test_load_reads_an_entry_once(self, tmp_path, monkeypatch):
        """load() opens and decodes an entry once, so a replace landing
        mid-load cannot pair one file's spec with another's result; a
        torn entry still loads as None."""
        store = ArtifactStore(tmp_path)
        job = _cell_jobs(1)[0]
        store.put(job, execute_job(job))
        path = store.path_for(job)
        opened = []
        real_open = io.open

        def counted_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file) == path:
                opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counted_open)
        monkeypatch.setattr(builtins, "open", counted_open)
        loaded = store.load(job.job_hash())
        assert loaded.result == execute_job(job)
        assert loaded.job.spec() == job.spec()
        assert len(opened) == 1
        path.write_text(path.read_text()[:40])
        assert store.load(job.job_hash()) is None

    def test_get_distinguishes_foreign_file_from_collision(self, tmp_path):
        store = ArtifactStore(tmp_path)
        job = _cell_jobs(1)[0]
        store.put(job, execute_job(job))
        other = _cell_jobs(2)[1]
        save_json(
            store.path_for(job), {"job": other.spec(), "result": {"x": 1}}
        )
        with pytest.raises(ExperimentError) as excinfo:
            store.get(job)
        message = str(excinfo.value)
        # Satellite contract: the error names both kinds and says which
        # failure mode this is (foreign file, not a SHA-256 collision).
        assert "found kind 'equilibrium_cell'" in message
        assert "expected kind 'equilibrium_cell'" in message
        assert "foreign file" in message
        assert "collision" not in message.split("foreign file")[1]

    def test_replay_asserts_bitwise_equality(self, tmp_path):
        store = ArtifactStore(tmp_path)
        job = _cell_jobs(1)[0]
        artifact = store.put(job, execute_job(job))
        assert artifact.replay() == artifact.result
        # Tamper with the stored result: replay must catch it.
        entry = load_json(artifact.path)
        entry["result"]["price"] += 1e-9
        artifact.path.write_text(json.dumps(entry))
        tampered = store.load(job.job_hash())
        with pytest.raises(ExperimentError, match="does not replay"):
            tampered.replay()

    def test_every_stored_artifact_replays(self, tmp_path):
        """Acceptance: after a drain, each artifact's embedded spec
        re-executes to the identical payload."""
        queue = JobQueue(tmp_path)
        queue.enqueue_many(_cell_jobs(3))
        _drain(queue)
        artifacts = list(queue.store)
        assert len(artifacts) == 3
        for artifact in artifacts:
            assert artifact.replay() == artifact.result

    def test_cell_artifacts_record_no_checkpoint(self, tmp_path):
        store = ArtifactStore(tmp_path)
        job = _cell_jobs(1)[0]
        assert store.put(job, execute_job(job)).checkpoint() is None

    def test_copied_store_entries_seed_a_new_queue(self, tmp_path):
        """Entries are self-describing files: copied into another queue's
        results/, they are served as cache hits and never re-enqueue."""
        jobs = _cell_jobs(2)
        queue = JobQueue(tmp_path / "queue")
        queue.enqueue_many(jobs)
        _drain(queue)
        seeded = JobQueue(tmp_path / "queue2")
        for path in queue.store.root.glob("*.json"):
            (seeded.store.root / path.name).write_bytes(path.read_bytes())
        assert seeded.enqueue_many(jobs) == 0
        scheduler = QueueScheduler(seeded.root, poll_interval=0.01)
        results = scheduler.run(jobs)
        assert scheduler.cache_hits == 2
        assert scheduler.jobs_executed == 0
        assert results == [queue.store.get(job).result for job in jobs]


class TestQueueSchedulerExperiments:
    """Acceptance: run_experiment through QueueScheduler is bitwise-equal
    to the direct run (no scheduler: the plan's jobs in-process), for a
    DRL figure and a robustness sweep."""

    def test_fig3_cost_bitwise_equals_direct(self, tmp_path):
        config = ExperimentConfig.smoke()
        costs = (5.0, 7.0)
        schemes = ("drl", "random", "equilibrium")
        params = {"config": config, "costs": costs, "schemes": schemes}
        direct = run_experiment("fig3_cost", params)
        scheduler = QueueScheduler(tmp_path, poll_interval=0.01)
        queued = run_experiment("fig3_cost", params, scheduler=scheduler)
        for cost in costs:
            for scheme in schemes:
                assert vars(queued.evaluations[cost][scheme]) == vars(
                    direct.evaluations[cost][scheme]
                )
        # DRL jobs parked their checkpoints as store sidecars, recorded
        # store-relative, and the artifacts resolve them.
        store = scheduler.queue.store
        with_blob = [
            artifact for artifact in store if artifact.checkpoint() is not None
        ]
        assert len(with_blob) == len(costs)
        for artifact in with_blob:
            assert not Path(artifact.result["checkpoint"]).is_absolute()
            checkpoint = artifact.checkpoint()
            assert checkpoint.exists()
            assert checkpoint.suffix == ".npz"
            assert checkpoint.parent == store.root / "checkpoints"

    def test_distance_sweep_bitwise_equals_direct(self, tmp_path):
        direct = run_experiment("distance_sweep")
        scheduler = QueueScheduler(tmp_path, poll_interval=0.01)
        queued = run_experiment("distance_sweep", scheduler=scheduler)
        assert queued.prices == direct.prices
        assert queued.msp_utilities == direct.msp_utilities
        assert scheduler.jobs_executed == len(direct.prices)

    def test_run_experiment_accepts_queue_scheduler(self, tmp_path):
        params = {"distances_m": (500.0, 1000.0)}
        direct = run_experiment("distance_sweep", params)
        queued = run_experiment(
            "distance_sweep",
            params,
            scheduler=QueueScheduler(tmp_path, poll_interval=0.01),
        )
        assert queued.prices == direct.prices
        assert queued.msp_utilities == direct.msp_utilities


class TestQueueCli:
    def _jobs_file(self, tmp_path, count=2):
        jobs = _cell_jobs(count)
        path = tmp_path / "jobs.json"
        save_json(path, [job.spec() for job in jobs])
        return path, jobs

    def test_schedule_enqueue_then_worker_drain(self, tmp_path, capsys):
        jobs_file, jobs = self._jobs_file(tmp_path)
        queue_dir = tmp_path / "queue"
        assert (
            schedule_main(
                [
                    "--jobs", str(jobs_file),
                    "--queue-dir", str(queue_dir),
                    "--enqueue",
                ]
            )
            == 0
        )
        assert "enqueued 2 of 2" in capsys.readouterr().out
        assert (
            worker_main(
                ["--queue-dir", str(queue_dir), "--drain", "--poll", "0.01"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 job(s) completed: 2 executed" in out
        store = JobQueue(queue_dir).store
        for job in jobs:
            assert store.get(job).result == execute_job(job)

    def test_schedule_through_queue_scheduler(self, tmp_path, capsys):
        jobs_file, jobs = self._jobs_file(tmp_path)
        queue_dir = tmp_path / "queue"
        assert (
            schedule_main(
                ["--jobs", str(jobs_file), "--queue-dir", str(queue_dir)]
            )
            == 0
        )
        assert "2 executed, 0 from cache" in capsys.readouterr().out
        # Re-run: pure cache hits through the same queue directory.
        assert (
            schedule_main(
                ["--jobs", str(jobs_file), "--queue-dir", str(queue_dir)]
            )
            == 0
        )
        assert "0 executed, 2 from cache" in capsys.readouterr().out

    def test_enqueue_requires_queue_dir(self, tmp_path):
        jobs_file, _ = self._jobs_file(tmp_path)
        with pytest.raises(SystemExit):
            schedule_main(["--jobs", str(jobs_file), "--enqueue"])

    def test_worker_rejects_bad_knobs(self, tmp_path):
        with pytest.raises(SystemExit):
            worker_main(["--queue-dir", str(tmp_path), "--ttl", "0"])
        with pytest.raises(SystemExit):
            worker_main(["--queue-dir", str(tmp_path), "--max-jobs", "0"])

    def test_worker_drains_empty_queue_immediately(self, tmp_path, capsys):
        assert (
            worker_main(["--queue-dir", str(tmp_path), "--drain"]) == 0
        )
        assert "0 job(s) completed" in capsys.readouterr().out
