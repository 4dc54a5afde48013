"""Queue workers and the queue-backed scheduler.

:class:`QueueWorker` is the execution half of the queue subsystem: a loop
of lease → execute → store → ack against one shared
:class:`~repro.queue.queue.JobQueue`, with a daemon heartbeat thread
beating on a fixed cadence so a multi-minute DRL training job never
starves the liveness beacon. Any worker doubles as the fleet's reaper —
no dedicated supervisor process is needed for kill-resume. It reaps when
it starts, on every idle poll, and otherwise at most once per heartbeat
interval, so a dead worker's leases requeue within one TTL plus one
heartbeat interval while the bookkeeping stays linear in jobs. A job that
raises is recorded under ``failures/`` and, after
:data:`~repro.queue.queue.MAX_FAILURES` attempts, quarantined.

:class:`QueueScheduler` adapts the queue to the
:class:`~repro.experiments.scheduler.JobScheduler` ``run()`` contract, so
``run_experiment(name, params, scheduler=QueueScheduler(queue_dir))``
batch-runs any experiment's plan against a shared queue/store: jobs whose
results are already stored are cache hits, the rest are enqueued for the
fleet, and (by default) the scheduler also runs an **inline worker** so a
single invocation completes even with no external workers — while any
external workers that are attached drain the same queue concurrently.
Results always come back from the artifact store (the JSON wire) — for
the jobs the inline worker ran, the entry ``ArtifactStore.put`` read back
— so the queued path is bitwise-equal to an in-process run by the same
float-exact round-trip contract the process-pool scheduler pins.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import traceback
import uuid
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ExperimentError
from repro.experiments.scheduler import Job, execute_job
from repro.queue.artifacts import Artifact
from repro.queue.queue import (
    DEFAULT_LEASE_TTL,
    MAX_FAILURES,
    JobQueue,
    LeasedJob,
)

__all__ = ["QueueWorker", "QueueScheduler", "WorkerStats", "default_worker_id"]


def default_worker_id() -> str:
    """A fleet-unique worker id: host, pid, and a random suffix."""
    return (
        f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:8]}"
    )


@dataclass
class WorkerStats:
    """What one :meth:`QueueWorker.run` call did."""

    completed: int = 0
    executed: int = 0
    deduplicated: int = 0
    requeued: int = 0
    hashes: list[str] = field(default_factory=list)


class _HeartbeatThread(threading.Thread):
    """Daemon beating ``queue.heartbeat(worker_id)`` every ``interval``.

    A daemon thread dies with the process — including under SIGKILL — so
    the beacon goes stale exactly when the worker actually stops, which is
    the signal the reaper keys on.
    """

    def __init__(self, queue: JobQueue, worker_id: str, interval: float):
        super().__init__(daemon=True, name=f"heartbeat-{worker_id}")
        self._queue = queue
        self._worker_id = worker_id
        self._interval = interval
        self._stop = threading.Event()

    def run(self) -> None:
        while not self._stop.is_set():
            try:
                self._queue.heartbeat(self._worker_id)
            except OSError:
                pass  # a transiently unwritable beacon is not fatal
            self._stop.wait(self._interval)

    def stop(self) -> None:
        self._stop.set()


class _Reaper:
    """A drain loop's reap cadence: :meth:`idle` reaps now (on an idle
    poll); :meth:`due`, called before each lease, reaps on its first call
    and then only once ``interval`` seconds have passed since the last
    reap."""

    def __init__(self, queue: JobQueue, interval: float):
        self._queue = queue
        self._interval = interval
        self._next: float | None = None

    def due(self) -> list[str]:
        if self._next is not None and time.monotonic() < self._next:
            return []
        return self.idle()

    def idle(self) -> list[str]:
        self._next = time.monotonic() + self._interval
        return self._queue.reap()


class QueueWorker:
    """One worker process's loop over a shared :class:`JobQueue`.

    Execution is *at-least-once*, results are *exactly-once*: before
    running a leased job the worker checks the artifact store and, if the
    result is already there (another worker finished a reaped duplicate),
    acks without executing. A job function that raises is recorded with
    :meth:`JobQueue.fail` — its traceback appended under ``failures/``,
    the job released for a retry elsewhere or, on its
    :data:`~repro.queue.queue.MAX_FAILURES`-th failure, quarantined — and
    the exception re-raises, so the failure is visible on this worker.
    """

    def __init__(
        self,
        queue: JobQueue,
        *,
        worker_id: str | None = None,
        heartbeat_interval: float | None = None,
        poll_interval: float = 0.1,
        reap: bool = True,
    ) -> None:
        self.queue = queue
        self.worker_id = worker_id or default_worker_id()
        # Default cadence: several beats per TTL, so one missed beat (GC
        # pause, NFS hiccup) never looks like death.
        self.heartbeat_interval = (
            queue.lease_ttl / 4.0
            if heartbeat_interval is None
            else float(heartbeat_interval)
        )
        if self.heartbeat_interval <= 0:
            raise ExperimentError(
                f"heartbeat_interval must be > 0, got {self.heartbeat_interval}"
            )
        if poll_interval <= 0:
            raise ExperimentError(
                f"poll_interval must be > 0, got {poll_interval}"
            )
        self.poll_interval = float(poll_interval)
        self.reap = bool(reap)

    def run(
        self,
        *,
        max_jobs: int | None = None,
        drain: bool = False,
        idle_timeout: float | None = None,
    ) -> WorkerStats:
        """Lease and execute jobs until a stop condition holds.

        Stop conditions: ``max_jobs`` completions; ``drain`` and the queue
        is empty (nothing pending *and* nothing leased anywhere — i.e. the
        whole fleet's work is done, so a draining worker waits out other
        workers' leases and picks them up if they die); or ``idle_timeout``
        seconds without obtaining a lease. With none set, serves forever.
        """
        stats = WorkerStats()
        beat = _HeartbeatThread(
            self.queue, self.worker_id, self.heartbeat_interval
        )
        self.queue.heartbeat(self.worker_id)
        beat.start()
        reaper = _Reaper(self.queue, self.heartbeat_interval)
        idle_since: float | None = None
        try:
            while max_jobs is None or stats.completed < max_jobs:
                if self.reap:
                    stats.requeued += len(reaper.due())
                leased = self.queue.lease(self.worker_id)
                if leased is None:
                    if self.reap:
                        requeued = reaper.idle()
                        stats.requeued += len(requeued)
                        if requeued:
                            continue  # lease the requeued jobs right away
                    if drain and self._fleet_done():
                        break
                    now = time.monotonic()
                    idle_since = idle_since if idle_since is not None else now
                    if (
                        idle_timeout is not None
                        and now - idle_since >= idle_timeout
                    ):
                        break
                    time.sleep(self.poll_interval)
                    continue
                idle_since = None
                self._execute(leased, stats)
        finally:
            beat.stop()
        return stats

    def _execute(self, leased: LeasedJob, stats: WorkerStats) -> Artifact:
        """Complete ``leased``; returns its stored artifact as read back."""
        store = self.queue.store
        artifact = store.get(leased.job)
        if artifact is not None:
            # Exactly-once results: a duplicate execution (reaped slow
            # worker, double enqueue across queues) completes by ack alone.
            self.queue.ack(leased)
            stats.deduplicated += 1
        else:
            try:
                result = execute_job(leased.job, artifact_dir=store.root)
            except Exception:
                # Record the traceback and retry elsewhere (or quarantine
                # a repeat offender); this worker surfaces the failure.
                self.queue.fail(leased, traceback.format_exc())
                raise
            except BaseException:
                # Interrupted, not failed (KeyboardInterrupt, SystemExit):
                # no failure record, the job goes straight back.
                self.queue.release(leased)
                raise
            artifact = store.put(leased.job, result)
            self.queue.ack(leased)
            stats.executed += 1
        stats.completed += 1
        stats.hashes.append(leased.job_hash)
        return artifact

    def _fleet_done(self) -> bool:
        if self.queue.pending_hashes():
            return False
        held = self.queue.leased_hashes()
        mine = held.get(self.worker_id, [])
        return all(
            not hashes or worker == self.worker_id
            for worker, hashes in held.items()
        ) and not mine


class QueueScheduler:
    """The :class:`JobScheduler` ``run()`` contract over a shared queue.

    Drop-in for ``run_experiment(..., scheduler=...)`` and the CLI's
    scheduler slot: exposes the same ``workers`` / ``resume`` knobs and
    the same post-run ``cache_hits`` / ``jobs_executed`` / ``job_sources``
    accounting. ``workers`` only sizes shard-style plan fan-out (the
    ``shards`` parameter defaulting) — actual parallelism comes from how
    many worker processes are attached to the queue directory.

    With ``execute=True`` (default) the scheduler participates as an
    inline worker until the batch is complete, so one invocation finishes
    the plan even on a box with no fleet. With ``execute=False`` it only
    enqueues and waits (``wait_timeout`` bounds the wait), which is the
    pure-producer mode for driving a remote fleet.

    ``resume=False`` recomputes every job in-process and overwrites its
    stored artifact (the same overwrite semantics as
    ``JobScheduler(resume=False)``); it deliberately bypasses the shared
    queue, because other workers would dedupe against the very results
    being invalidated.
    """

    def __init__(
        self,
        queue_dir: str | Path,
        *,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        workers: int = 1,
        resume: bool = True,
        execute: bool = True,
        wait_timeout: float | None = None,
        poll_interval: float = 0.05,
        worker_id: str | None = None,
    ) -> None:
        if workers < 1:
            raise ExperimentError(f"workers must be >= 1, got {workers}")
        if wait_timeout is not None and wait_timeout <= 0:
            raise ExperimentError(
                f"wait_timeout must be > 0 seconds, got {wait_timeout}"
            )
        self.queue = JobQueue(queue_dir, lease_ttl=lease_ttl)
        self.workers = workers
        self.resume = resume
        self.execute = execute
        self.wait_timeout = wait_timeout
        self.poll_interval = float(poll_interval)
        self.worker_id = worker_id or default_worker_id()
        self.cache_hits = 0
        self.jobs_executed = 0
        self.jobs_completed_elsewhere = 0
        self.job_sources: list[str] = []

    @property
    def cache_dir(self) -> Path:
        """The artifact-store root (the queue's result cache)."""
        return self.queue.store.root

    def run(self, jobs: Sequence[Job]) -> list:
        """Execute ``jobs`` via the shared queue; results in job order.

        Matches ``JobScheduler.run`` semantics: duplicate specs collapse
        onto one execution, results already in the store are cache hits
        served without touching the queue, and every returned payload is
        the store's JSON-round-tripped form (bitwise-equal to direct
        execution).
        """
        jobs = list(jobs)
        self.cache_hits = 0
        self.jobs_executed = 0
        self.jobs_completed_elsewhere = 0
        self.job_sources = ["cache"] * len(jobs)
        results: list = [None] * len(jobs)
        store = self.queue.store
        pending: dict[str, list[int]] = {}
        pending_jobs: dict[str, Job] = {}
        for index, job in enumerate(jobs):
            key = job.job_hash()
            if key in pending:
                pending[key].append(index)
                self.job_sources[index] = "executed"
                continue
            artifact = store.get(job) if self.resume else None
            if artifact is not None:
                results[index] = artifact.result
                self.cache_hits += 1
            else:
                pending[key] = [index]
                pending_jobs[key] = job
                self.job_sources[index] = "executed"
        if not pending:
            return results
        if not self.resume:
            produced = self._recompute_inline(pending_jobs)
        else:
            self.queue.enqueue_many(pending_jobs.values())
            produced = self._drain(set(pending))
        executed_locally = self.jobs_executed
        for key, indices in pending.items():
            # Only jobs finished elsewhere are read from the store here.
            artifact = produced.get(key)
            if artifact is None:
                artifact = store.get(pending_jobs[key])
            if artifact is None:  # pragma: no cover - _drain guards
                raise ExperimentError(
                    f"job {key[:16]}... completed without a stored result"
                )
            for index in indices:
                results[index] = artifact.result
        self.jobs_executed = len(pending)
        self.jobs_completed_elsewhere = len(pending) - executed_locally
        return results

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _recompute_inline(
        self, pending_jobs: dict[str, Job]
    ) -> dict[str, Artifact]:
        produced = {}
        for key, job in pending_jobs.items():
            result = execute_job(job, artifact_dir=self.queue.store.root)
            produced[key] = self.queue.store.put(job, result)
            self.jobs_executed += 1
        return produced

    def _drain(self, batch: set[str]) -> dict[str, Artifact]:
        """Wait until every hash in ``batch`` is stored; returns the
        artifacts of the batch jobs this scheduler completed itself.

        With ``execute`` the scheduler works the queue as an inline
        worker. It executes whatever it leases — its own batch or a
        cooperating producer's jobs — because a shared queue has no "my
        jobs first" ordering. Completion is tracked incrementally: a hash
        leaves the remaining set when this worker acks it, and the full
        ``outstanding()`` rescan, which also sees jobs finished elsewhere,
        runs only on an idle poll (``lease()`` found nothing, or always in
        producer mode). Reaping runs at the start, on every idle poll, and
        otherwise at most once per heartbeat interval, so a dead external
        worker stalls the batch by at most one TTL plus one heartbeat
        interval. A batch job that the fleet quarantined raises
        :class:`ExperimentError` instead of being waited on forever.
        """
        remaining = set(batch)
        produced: dict[str, Artifact] = {}
        worker = QueueWorker(
            self.queue,
            worker_id=self.worker_id,
            poll_interval=self.poll_interval,
        )
        reaper = _Reaper(self.queue, worker.heartbeat_interval)
        stats = WorkerStats()
        deadline = (
            time.monotonic() + self.wait_timeout
            if self.wait_timeout is not None
            else None
        )
        beat = None
        if self.execute:
            beat = _HeartbeatThread(
                self.queue, self.worker_id, worker.heartbeat_interval
            )
            self.queue.heartbeat(self.worker_id)
            beat.start()
        try:
            while remaining:
                if self.execute:
                    reaper.due()
                    leased = self.queue.lease(self.worker_id)
                    if leased is not None:
                        artifact = worker._execute(leased, stats)
                        if leased.job_hash in remaining:
                            remaining.discard(leased.job_hash)
                            produced[leased.job_hash] = artifact
                        continue
                if reaper.idle() and self.execute:
                    continue  # lease the requeued jobs right away
                remaining = set(self.queue.outstanding(sorted(remaining)))
                if not remaining:
                    break
                self._raise_if_quarantined(remaining)
                if deadline is not None and time.monotonic() >= deadline:
                    raise ExperimentError(
                        f"queue batch incomplete after wait_timeout="
                        f"{self.wait_timeout}s; outstanding jobs: "
                        f"{[key[:16] for key in sorted(remaining)]}"
                    )
                time.sleep(self.poll_interval)
        finally:
            if beat is not None:
                beat.stop()
            self.jobs_executed += stats.executed
        return produced

    def _raise_if_quarantined(self, remaining: set[str]) -> None:
        poisoned = sorted(
            remaining.intersection(self.queue.quarantined_hashes())
        )
        if poisoned:
            raise ExperimentError(
                f"{len(poisoned)} job(s) of this batch were quarantined "
                f"after {MAX_FAILURES} failed attempts: "
                + "; ".join(
                    f"{key[:16]}... (tracebacks in "
                    f"{self.queue.failure_path(key)})"
                    for key in poisoned
                )
            )
