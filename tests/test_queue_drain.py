"""Queue drain cost, durability and liveness: bookkeeping linear in jobs,
every visible file fsync'd before its rename, reaping on a heartbeat
cadence, and poison-job quarantine.

The cost tests count calls through wrappers on the queue and store
methods, so they pin the *shape* of a drain (how many store lookups,
rescans and reaps it makes) rather than a wall-clock time. The cadence
tests run the drain loops on a fake monotonic clock — ``time`` inside
``repro.queue.worker`` is swapped for an object whose ``sleep`` advances
the clock — so a 60-second TTL tests in milliseconds.
"""

import json
import os
import signal
import time
from pathlib import Path

import pytest

import repro.queue.queue as queue_module
import repro.queue.worker as worker_module
from repro.core.stackelberg import StackelbergMarket
from repro.entities.vmu import sample_population
from repro.errors import ExperimentError
from repro.experiments import scheduler as scheduler_module
from repro.experiments.scheduler import (
    Job,
    execute_job,
    market_to_payload,
    register_job_kind,
)
from repro.queue import (
    MAX_FAILURES,
    ArtifactStore,
    JobQueue,
    QueueScheduler,
    QueueWorker,
)

WATCHDOG_SECONDS = 120.0


@pytest.fixture(autouse=True)
def _watchdog():
    """Per-test timeout guard: a stuck wait loop fails fast, not forever."""
    if not hasattr(signal, "SIGALRM"):  # non-POSIX fallback: no guard
        yield
        return

    def _timed_out(signum, frame):
        raise TimeoutError(
            f"queue drain test exceeded the {WATCHDOG_SECONDS}s watchdog"
        )

    previous = signal.signal(signal.SIGALRM, _timed_out)
    signal.setitimer(signal.ITIMER_REAL, WATCHDOG_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _cell_jobs(count):
    return [
        Job(
            "equilibrium_cell",
            {
                "market": market_to_payload(
                    StackelbergMarket(sample_population(2, seed=seed))
                )
            },
        )
        for seed in range(count)
    ]


def _count_calls(monkeypatch, owner, name, log=None):
    """Wrap ``owner.name`` so each call is counted (and logged)."""
    original = getattr(owner, name)
    calls = []

    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(result)
        if log is not None:
            log.append((name, result))
        return result

    monkeypatch.setattr(owner, name, wrapper)
    return calls


class FakeTime:
    """Stands in for the ``time`` module inside ``repro.queue.worker``."""

    def __init__(self):
        self.now = 1_000.0

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeTime()
    monkeypatch.setattr(worker_module, "time", fake)
    return fake


def _jobs_take(monkeypatch, clock, seconds, before=None):
    """Every executed job advances the fake clock by ``seconds``."""

    def timed_execute(job, artifact_dir=None):
        if before is not None:
            before()
        clock.now += seconds
        return execute_job(job, artifact_dir=artifact_dir)

    monkeypatch.setattr(worker_module, "execute_job", timed_execute)


class TestDrainCost:
    N = 60

    def test_inline_drain_bookkeeping_is_linear(self, tmp_path, monkeypatch):
        """A cold inline drain checks the store O(N) times, not O(N²), and
        rescans and reaps only a handful of times."""
        jobs = _cell_jobs(self.N)
        contains = _count_calls(monkeypatch, ArtifactStore, "contains")
        outstanding = _count_calls(monkeypatch, JobQueue, "outstanding")
        reaps = _count_calls(monkeypatch, JobQueue, "reap")
        scheduler = QueueScheduler(tmp_path, poll_interval=0.01)
        results = scheduler.run(jobs)
        assert results == [execute_job(job) for job in jobs]
        assert scheduler.jobs_executed == self.N
        assert len(contains) <= 2 * self.N
        assert len(outstanding) <= 3
        assert len(reaps) <= 5

    def test_own_results_are_not_read_back_twice(self, tmp_path, monkeypatch):
        """The round trip put() hands back serves the batch: a cold run
        reads the store once per job (the resume check; the pre-execute
        dedup check only tests for the entry), a resumed run once."""
        jobs = _cell_jobs(5)
        gets = _count_calls(monkeypatch, ArtifactStore, "get")
        QueueScheduler(tmp_path, poll_interval=0.01).run(jobs)
        assert len(gets) == len(jobs)
        resumed = QueueScheduler(tmp_path, poll_interval=0.01)
        resumed.run(jobs)
        assert resumed.cache_hits == len(jobs)
        assert len(gets) == 2 * len(jobs)

    def test_pending_scans_and_beats_do_not_grow_with_jobs(
        self, tmp_path, monkeypatch
    ):
        """lease() takes its candidates from one listing of pending/ and
        rewrites the heartbeat only when a beat is due, so an N-job inline
        drain scans pending/ and beats a bounded number of times, not
        once per lease."""
        scans = []
        real_spec_names = queue_module._spec_names

        def counted_spec_names(directory):
            names = real_spec_names(directory)
            if Path(directory).name == "pending":
                scans.append(len(names))
            return names

        monkeypatch.setattr(queue_module, "_spec_names", counted_spec_names)
        leases = _count_calls(monkeypatch, JobQueue, "lease")
        beats = _count_calls(monkeypatch, JobQueue, "heartbeat")
        scheduler = QueueScheduler(tmp_path, poll_interval=0.01)
        scheduler.run(_cell_jobs(self.N))
        assert scheduler.jobs_executed == self.N
        assert len(leases) >= self.N
        assert len(scans) <= 3
        assert sum(scans) <= self.N + 3
        assert len(beats) <= 3

    def test_jobs_finished_elsewhere_are_read_from_the_store(
        self, tmp_path, monkeypatch, clock
    ):
        """A batch job another live worker holds is waited for on idle
        polls and then read from the store."""
        jobs = _cell_jobs(3)
        queue = JobQueue(tmp_path)
        queue.enqueue_many(jobs)
        held = queue.lease("other")  # alive: lease() wrote a fresh beacon

        def other_worker_finishes(seconds):
            clock.now += seconds
            if held.path.exists():
                queue.store.put(held.job, execute_job(held.job))
                queue.ack(held)

        monkeypatch.setattr(clock, "sleep", other_worker_finishes)
        gets = _count_calls(monkeypatch, ArtifactStore, "get")
        scheduler = QueueScheduler(tmp_path, poll_interval=0.01)
        assert scheduler.run(jobs) == [execute_job(job) for job in jobs]
        assert scheduler.jobs_completed_elsewhere == 1
        # 3 resume checks and 1 read of the job finished elsewhere.
        assert len(gets) == 3 + 1


class TestDurability:
    def test_visible_files_are_fsynced_before_their_rename(
        self, tmp_path, monkeypatch
    ):
        """Every spec renamed into pending/ and every entry renamed into
        results/ was fsync'd, at its final size, before the rename."""
        queue = JobQueue(tmp_path)
        watched = {queue.pending_dir: 0, queue.store.root: 0}
        synced = {}
        real_fsync, real_replace = os.fsync, os.replace

        def fsync(fd):
            real_fsync(fd)
            stat = os.fstat(fd)
            synced[stat.st_dev, stat.st_ino] = stat.st_size

        def replace(source, target, *args, **kwargs):
            folder = Path(target).parent
            if folder in watched:
                stat = os.stat(source)
                # Each fsync vouches for one rename: a later file that
                # reuses the inode must be synced again.
                size = synced.pop((stat.st_dev, stat.st_ino), None)
                assert size == stat.st_size, (
                    f"{source} was renamed to {target} without an fsync "
                    "of its final contents"
                )
                watched[folder] += 1
            return real_replace(source, target, *args, **kwargs)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(os, "replace", replace)
        jobs = _cell_jobs(20)
        scheduler = QueueScheduler(tmp_path, poll_interval=0.01)
        assert scheduler.run(jobs) == [execute_job(job) for job in jobs]
        assert watched == {queue.pending_dir: 20, queue.store.root: 20}


class TestReapCadence:
    TTL = 60.0  # heartbeat interval 15 s

    def test_worker_reaps_once_per_interval_while_busy(
        self, tmp_path, monkeypatch, clock
    ):
        queue = JobQueue(tmp_path, lease_ttl=self.TTL)
        queue.enqueue_many(_cell_jobs(12))
        _jobs_take(monkeypatch, clock, 4.0)
        reap_times = []
        original = JobQueue.reap

        def timed_reap(self, **kwargs):
            reap_times.append(clock.now)
            return original(self, **kwargs)

        monkeypatch.setattr(JobQueue, "reap", timed_reap)
        worker = QueueWorker(queue, worker_id="w", poll_interval=0.5)
        stats = worker.run(max_jobs=12)
        assert stats.executed == 12
        interval = worker.heartbeat_interval
        assert interval == self.TTL / 4.0
        # 12 jobs x 4 s = 48 s busy: a reap at the start, then one per 15 s.
        assert reap_times[0] == 1_000.0
        gaps = [b - a for a, b in zip(reap_times, reap_times[1:])]
        assert all(gap >= interval for gap in gaps)
        assert len(reap_times) <= 1 + 48.0 / interval

    def test_worker_reaps_on_every_idle_poll(
        self, tmp_path, monkeypatch, clock
    ):
        queue = JobQueue(tmp_path, lease_ttl=self.TTL)
        queue.enqueue_many(_cell_jobs(2))
        log = []
        _count_calls(monkeypatch, JobQueue, "lease", log)
        _count_calls(monkeypatch, JobQueue, "reap", log)
        worker = QueueWorker(queue, worker_id="w", poll_interval=0.5)
        stats = worker.run(idle_timeout=5.0)
        assert stats.executed == 2
        idle_polls = [
            index
            for index, (name, result) in enumerate(log)
            if name == "lease" and result is None
        ]
        assert len(idle_polls) >= 5
        for index in idle_polls:
            assert log[index + 1][0] == "reap"

    def test_scheduler_drain_reaps_once_per_interval_while_busy(
        self, tmp_path, monkeypatch, clock
    ):
        _jobs_take(monkeypatch, clock, 4.0)
        reaps = _count_calls(monkeypatch, JobQueue, "reap")
        scheduler = QueueScheduler(
            tmp_path, lease_ttl=self.TTL, poll_interval=0.5
        )
        scheduler.run(_cell_jobs(12))
        assert scheduler.jobs_executed == 12
        # 48 fake seconds busy at 15 s per reap, and no idle poll at all.
        assert 1 <= len(reaps) <= 4

    def test_dead_workers_batch_job_completes_inline(
        self, tmp_path, monkeypatch, clock
    ):
        """A worker leases one of the batch's jobs mid-drain and dies; the
        inline drain reaps its lease and completes the batch."""
        jobs = _cell_jobs(6)
        queue = JobQueue(tmp_path, lease_ttl=self.TTL)
        died = []

        def die_once():
            if not died:
                dead = queue.lease("dead")
                assert dead is not None
                queue.heartbeat("dead", now=time.time() - 2 * self.TTL)
                died.append(dead.job_hash)

        _jobs_take(monkeypatch, clock, 1.0, before=die_once)
        scheduler = QueueScheduler(
            tmp_path, lease_ttl=self.TTL, poll_interval=0.5
        )
        results = scheduler.run(jobs)
        assert died and died[0] in {job.job_hash() for job in jobs}
        assert results == [execute_job(job) for job in jobs]
        assert scheduler.jobs_executed == len(jobs)
        assert scheduler.jobs_completed_elsewhere == 0
        assert "dead" not in queue.leased_hashes()
        assert queue.outstanding() == []


def _poison(payload):
    raise RuntimeError(f"poisoned job {payload['n']}")


def _interrupt(payload):
    raise KeyboardInterrupt


@pytest.fixture
def poison_kind(monkeypatch):
    """Register the always-raising kinds for one test only."""
    monkeypatch.setattr(scheduler_module, "_REGISTERED_JOB_KINDS", {})
    register_job_kind("test_poison", _poison)
    register_job_kind("test_interrupt", _interrupt)
    return Job("test_poison", {"n": 1})


class TestQuarantine:
    def test_poison_job_is_quarantined_with_its_tracebacks(
        self, tmp_path, poison_kind
    ):
        queue = JobQueue(tmp_path)
        assert queue.enqueue(poison_kind)
        key = poison_kind.job_hash()
        for attempt in range(1, MAX_FAILURES + 1):
            worker = QueueWorker(
                queue, worker_id=f"w{attempt}", poll_interval=0.01
            )
            with pytest.raises(RuntimeError, match="poisoned job 1"):
                worker.run(drain=True)
            lines = queue.failure_path(key).read_text().splitlines()
            assert len(lines) == attempt
            if attempt < MAX_FAILURES:
                assert queue.pending_hashes() == [key]  # retried
        records = [
            json.loads(line)
            for line in queue.failure_path(key).read_text().splitlines()
        ]
        workers = [record["worker_id"] for record in records]
        assert workers == ["w1", "w2", "w3"]
        for record in records:
            assert "Traceback" in record["traceback"]
            assert "RuntimeError: poisoned job 1" in record["traceback"]
        assert queue.quarantined_hashes() == [key]
        assert (queue.quarantine_dir / f"{key}.json").exists()
        assert queue.pending_hashes() == []
        assert not any(queue.leased_hashes().values())
        assert queue.stats().quarantined == 1
        # Out of rotation: re-enqueueing is a no-op and the fleet is done.
        assert queue.enqueue(poison_kind) is False
        stats = QueueWorker(queue, worker_id="w4", poll_interval=0.01).run(
            drain=True
        )
        assert stats.completed == 0

    def test_scheduler_names_quarantined_jobs_of_its_batch(
        self, tmp_path, poison_kind
    ):
        queue = JobQueue(tmp_path)
        queue.enqueue(poison_kind)
        for attempt in range(MAX_FAILURES):
            with pytest.raises(RuntimeError):
                QueueWorker(queue, worker_id="w", poll_interval=0.01).run(
                    drain=True
                )
        good = _cell_jobs(1)[0]
        scheduler = QueueScheduler(tmp_path, poll_interval=0.01)
        with pytest.raises(ExperimentError, match="quarantined") as info:
            scheduler.run([good, poison_kind])
        assert poison_kind.job_hash()[:16] in str(info.value)
        assert str(queue.failure_path(poison_kind.job_hash())) in str(
            info.value
        )
        # The healthy job of the batch was still completed and stored.
        assert queue.store.contains(good)

    def test_inline_failure_surfaces_and_is_recorded(
        self, tmp_path, poison_kind
    ):
        scheduler = QueueScheduler(tmp_path, poll_interval=0.01)
        with pytest.raises(RuntimeError, match="poisoned"):
            scheduler.run([poison_kind])
        queue = scheduler.queue
        assert queue.pending_hashes() == [poison_kind.job_hash()]
        lines = queue.failure_path(poison_kind.job_hash()).read_text()
        assert len(lines.splitlines()) == 1

    def test_interrupt_is_not_a_failure(self, tmp_path, poison_kind):
        queue = JobQueue(tmp_path)
        job = Job("test_interrupt", {})
        queue.enqueue(job)
        with pytest.raises(KeyboardInterrupt):
            QueueWorker(queue, worker_id="w", poll_interval=0.01).run()
        assert queue.pending_hashes() == [job.job_hash()]
        assert not queue.failures_dir.exists()

    def test_happy_path_touches_no_failure_state(self, tmp_path):
        scheduler = QueueScheduler(tmp_path, poll_interval=0.01)
        scheduler.run(_cell_jobs(3))
        assert not scheduler.queue.failures_dir.exists()
        assert not scheduler.queue.quarantine_dir.exists()
