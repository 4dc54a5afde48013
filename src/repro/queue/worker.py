"""Queue workers and the queue-backed scheduler.

:class:`QueueWorker` is the execution half of the queue subsystem: one
loop of lease → execute → store → ack against one shared
:class:`~repro.queue.queue.JobQueue`, with a daemon heartbeat thread
beating on a fixed cadence so a multi-minute DRL training job never
starves the liveness beacon. Any worker doubles as the fleet's reaper —
no dedicated supervisor process is needed for kill-resume. It reaps when
it starts, on every idle poll, and otherwise at most once per heartbeat
interval, so a dead worker's leases requeue within one TTL plus one
heartbeat interval while the bookkeeping stays linear in jobs. A job that
raises is recorded under ``failures/`` and, after
:data:`~repro.queue.queue.MAX_FAILURES` attempts, quarantined. A worker
retires itself when its loop ends, however it ends, so its leases
requeue at once.

:class:`QueueScheduler` is the one executor of job batches, so
``run_experiment(name, params, scheduler=QueueScheduler(queue_dir))``
batch-runs any experiment's plan against a shared queue/store: jobs whose
results are already stored are cache hits, the rest are enqueued, and the
scheduler drains them with ``workers`` local executors — itself as an
**inline worker**, running the same loop as :class:`QueueWorker` with its
own stop checks, plus ``workers - 1`` local worker processes — so a
single invocation completes even with no external workers, while any
external workers that are attached drain the same queue concurrently.
Results always come back through the artifact store's JSON wire — for
the jobs the inline worker ran, the round trip ``ArtifactStore.put``
hands back — so the queued path is bitwise-equal to an in-process run,
because floats survive the store's JSON entries exactly.
"""

from __future__ import annotations

import os
import socket
import threading
import time
import traceback
import uuid
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ExperimentError
from repro.experiments.scheduler import (
    Job,
    _registered_paths,
    execute_job,
    register_job_kind,
)
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


class _HeartbeatThread(threading.Thread):
    """Daemon beating ``queue.heartbeat(worker_id)`` every ``interval``
    after the first beat, which its starter writes before starting it.

    A daemon thread dies with the process — including under SIGKILL — so
    the beacon goes stale exactly when the worker actually stops, which is
    the signal the reaper keys on.
    """

    def __init__(self, queue: JobQueue, worker_id: str, interval: float):
        super().__init__(daemon=True, name=f"heartbeat-{worker_id}")
        self._queue = queue
        self._worker_id = worker_id
        self._interval = interval
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self._interval):
            try:
                self._queue.heartbeat(self._worker_id)
            except OSError:
                pass  # a transiently unwritable beacon is not fatal

    def stop(self) -> None:
        self._halt.set()


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
    ) -> None:
        self.queue = queue
        self.worker_id = worker_id or default_worker_id()
        self.heartbeat_interval = (
            queue.heartbeat_interval
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
        idle_since: float | None = None

        def after_job(leased: LeasedJob, artifact: Artifact) -> bool:
            nonlocal idle_since
            idle_since = None
            return max_jobs is not None and stats.completed >= max_jobs

        def on_idle() -> bool:
            nonlocal idle_since
            if drain and self._fleet_done():
                return True
            now = time.monotonic()
            idle_since = idle_since if idle_since is not None else now
            return idle_timeout is not None and now - idle_since >= idle_timeout

        if max_jobs is None or max_jobs > 0:
            self._serve(stats, after_job, on_idle)
        return stats

    def _serve(
        self,
        stats: WorkerStats,
        after_job: Callable[[LeasedJob, Artifact], bool],
        on_idle: Callable[[], bool],
    ) -> None:
        """The one lease → execute → reap loop, counting into ``stats``.

        Stops when ``after_job(leased, artifact)`` returns True after a job
        or ``on_idle()`` does on an idle poll whose reap requeued nothing.
        However it ends, this worker retires: no heartbeat or lease
        directory is left, and whatever it held goes back to ``pending/``.
        """
        beat = _HeartbeatThread(
            self.queue, self.worker_id, self.heartbeat_interval
        )
        self.queue.heartbeat(self.worker_id)
        beat.start()
        reaper = _Reaper(self.queue, self.heartbeat_interval)
        try:
            while True:
                stats.requeued += len(reaper.due())
                leased = self.queue.lease(self.worker_id)
                if leased is not None:
                    if after_job(leased, self._execute(leased, stats)):
                        return
                    continue
                requeued = reaper.idle()
                stats.requeued += len(requeued)
                if requeued:
                    continue  # lease the requeued jobs right away
                if on_idle():
                    return
                time.sleep(self.poll_interval)
        finally:
            beat.stop()
            beat.join()
            self.queue.retire(self.worker_id)

    def _execute(self, leased: LeasedJob, stats: WorkerStats) -> Artifact:
        """Complete ``leased``; returns its stored artifact (as ``put``
        handed it back, or as read when another worker stored it)."""
        store = self.queue.store
        artifact = (
            store.get(leased.job) if store.contains(leased.job) else None
        )
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


def _serve_local(
    queue_dir: str,
    worker_id: str,
    lease_ttl: float,
    poll_interval: float,
    registered_paths: dict[str, str],
) -> None:
    """A local worker process: drain the queue at ``queue_dir`` as
    ``worker_id``, then exit.

    Module-level so any multiprocessing start method can pickle it.
    ``registered_paths`` replays the parent's dotted-path
    :func:`~repro.experiments.scheduler.register_job_kind` calls, so those
    kinds resolve here under any start method. A job that raises is
    recorded under ``failures/`` (and released or quarantined) before the
    exception ends this process.
    """
    for name, path in registered_paths.items():
        register_job_kind(name, path)
    queue = JobQueue(queue_dir, lease_ttl=lease_ttl)
    QueueWorker(
        queue, worker_id=worker_id, poll_interval=poll_interval
    ).run(drain=True)


class QueueScheduler:
    """The one executor of :class:`~repro.experiments.scheduler.Job`
    batches, over a shared queue directory.

    ``run_experiment(..., scheduler=...)`` and the CLI hand it a plan's
    jobs. Jobs whose results are already in the directory's artifact store
    are cache hits; the rest are enqueued and drained by ``workers`` local
    executors — the scheduler itself as an inline worker plus
    ``workers - 1`` local worker processes — alongside any external fleet
    attached to the same directory. Post-run accounting: ``cache_hits``,
    ``jobs_executed`` (the batch's misses, each unique spec once),
    ``jobs_completed_elsewhere`` (misses not executed inline) and
    ``job_sources`` (``"cache"`` or ``"executed"`` per submitted job).
    ``workers`` sizes only this fan-out; it never changes what a plan
    contains.

    ``job_timeout=t`` is a hang guard: an inline job cannot be
    interrupted, so with ``t`` set all ``workers`` executors are local
    processes and the scheduler only watches. A lease one of them holds on
    this batch for longer than ``t`` is recorded as a failure (it counts
    toward quarantine) and the run raises :class:`ExperimentError`.

    ``resume=False`` drops the batch's stored entries first, so every job
    recomputes through the same enqueue/drain path and overwrites its
    artifact; a torn entry is dropped too, as a miss. Local worker
    processes never outlive :meth:`run`.
    """

    def __init__(
        self,
        queue_dir: str | Path,
        *,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        workers: int = 1,
        resume: bool = True,
        job_timeout: float | None = None,
        poll_interval: float = 0.05,
        worker_id: str | None = None,
    ) -> None:
        if workers < 1:
            raise ExperimentError(f"workers must be >= 1, got {workers}")
        if job_timeout is not None and job_timeout <= 0:
            raise ExperimentError(
                f"job_timeout must be > 0 seconds, got {job_timeout}"
            )
        self.queue = JobQueue(queue_dir, lease_ttl=lease_ttl)
        self.workers = workers
        self.resume = resume
        self.job_timeout = job_timeout
        self.poll_interval = float(poll_interval)
        self.worker_id = worker_id or default_worker_id()
        self.cache_hits = 0
        self.jobs_executed = 0
        self.jobs_completed_elsewhere = 0
        self.job_sources: list[str] = []

    def run(self, jobs: Sequence[Job]) -> list:
        """Execute ``jobs`` via the shared queue; results in job order.

        Duplicate specs collapse onto one execution, results already in
        the store are cache hits served without touching the queue, and
        every returned payload is the store's JSON-round-tripped form
        (bitwise-equal to direct execution).
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
            if self.resume:
                artifact = store.get(job)
            else:
                # Recompute: drop the entry so the job enqueues.
                artifact = None
                store.path_for(job).unlink(missing_ok=True)
            if artifact is None:
                artifact = self._enqueue(job)
            if artifact is not None:
                results[index] = artifact.result
                self.cache_hits += 1
            else:
                pending[key] = [index]
                pending_jobs[key] = job
                self.job_sources[index] = "executed"
        if not pending:
            return results
        artifacts: dict[str, Artifact] = {}
        batch = pending_jobs
        while batch:
            produced = self._drain(batch)
            for key, job in batch.items():
                # Only jobs finished elsewhere are read from the store
                # here. An entry dropped after the drain saw it stored
                # (another producer's resume=False, or a torn entry) is
                # outstanding: it is enqueued again.
                artifact = (
                    produced.get(key) or store.get(job) or self._enqueue(job)
                )
                if artifact is not None:
                    artifacts[key] = artifact
            batch = {
                key: job for key, job in batch.items() if key not in artifacts
            }
        for key, indices in pending.items():
            for index in indices:
                results[index] = artifacts[key].result
        self.jobs_completed_elsewhere = len(pending) - self.jobs_executed
        self.jobs_executed = len(pending)
        return results

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _enqueue(self, job: Job) -> Artifact | None:
        """Enqueue ``job``, whose store read just missed; returns its
        artifact instead if an entry has landed since.

        The store is read again only when :meth:`JobQueue.enqueue`
        declines the job because an entry exists: one that now reads (a
        producer wrote it after the miss) is served, and one that still
        does not is torn and is dropped, so the job enqueues after all.
        A job declined as pending, leased or quarantined is left to the
        drain.
        """
        store = self.queue.store
        if self.queue.enqueue(job) or not store.contains(job):
            return None
        artifact = store.get(job)
        if artifact is None:
            store.path_for(job).unlink(missing_ok=True)
            self.queue.enqueue(job)
        return artifact

    def _drain(self, batch: dict[str, Job]) -> dict[str, Artifact]:
        """Wait until every job in ``batch`` is stored; returns the
        artifacts of the batch jobs this scheduler completed inline.

        Without ``job_timeout`` the scheduler runs :class:`QueueWorker`'s
        loop as an inline worker. It executes whatever it leases — its own
        batch or a cooperating producer's jobs — because a shared queue
        has no "my jobs first" ordering. Completion is tracked
        incrementally: a hash leaves the remaining set when this worker
        acks it, and the full ``outstanding()`` rescan, which also sees
        jobs finished elsewhere, runs only on an idle poll (every poll
        when only watching). A batch job that the fleet quarantined raises
        :class:`ExperimentError` instead of being waited on forever.

        Local worker processes (never more than the batch has jobs for)
        start before the heartbeat thread, so no multi-threaded process is
        forked, and are terminated and joined on the way out; whatever
        they still held — a cooperating producer's job among them — goes
        straight back to ``pending/``, together with their heartbeats and
        lease directories (:meth:`JobQueue.retire`).
        """
        remaining = set(batch)
        produced: dict[str, Artifact] = {}
        inline = self.job_timeout is None
        stats = WorkerStats()
        children: dict[str, object] = {}

        def after_job(leased: LeasedJob, artifact: Artifact) -> bool:
            if leased.job_hash in remaining:
                remaining.discard(leased.job_hash)
                produced[leased.job_hash] = artifact
            return not remaining

        def settled() -> bool:
            remaining.intersection_update(
                self.queue.outstanding(sorted(remaining))
            )
            if remaining:
                self._raise_if_quarantined(remaining)
            return not remaining

        try:
            local = (
                min(self.workers - 1, len(batch) - 1)
                if inline
                else min(self.workers, len(batch))
            )
            if local:
                self._start_local_workers(local, children)
            if inline:
                QueueWorker(
                    self.queue,
                    worker_id=self.worker_id,
                    poll_interval=self.poll_interval,
                )._serve(stats, after_job, settled)
            else:
                first_seen: dict[tuple[str, str], float] = {}
                while True:
                    self.queue.reap()
                    if settled():
                        break
                    self._watch(batch, remaining, first_seen, children)
                    time.sleep(self.poll_interval)
        finally:
            for child in children.values():
                child.terminate()
            for worker_id, child in children.items():
                child.join()
                self.queue.retire(worker_id)
            self.jobs_executed += stats.executed
        return produced

    def _start_local_workers(self, count: int, children: dict) -> None:
        """Start ``count`` local worker processes, adding each to
        ``children`` under its worker id as it starts (so a failed start
        still stops the earlier ones)."""
        import multiprocessing

        for _ in range(count):
            worker_id = default_worker_id()
            child = multiprocessing.Process(
                target=_serve_local,
                args=(
                    str(self.queue.root),
                    worker_id,
                    self.queue.lease_ttl,
                    self.poll_interval,
                    _registered_paths(),
                ),
                daemon=True,
            )
            child.start()
            children[worker_id] = child

    def _watch(
        self,
        batch: dict[str, Job],
        remaining: set[str],
        first_seen: dict[tuple[str, str], float],
        children: dict,
    ) -> None:
        """The ``job_timeout`` checks of one idle poll.

        Notes when each lease a local worker holds on ``remaining`` was
        first seen; one held longer than ``job_timeout`` is recorded as a
        failure and raises. Leases of other workers (an external fleet, a
        killed run's not yet reaped) are not timed: this scheduler can
        neither stop those workers nor vouch that they hang. Also raises
        when every local worker has exited with the batch still
        outstanding — nobody is left to finish it.
        """
        now = time.monotonic()
        held = self.queue.leased_hashes()
        for worker_id in children:
            for key in remaining.intersection(held.get(worker_id, ())):
                since = first_seen.setdefault((worker_id, key), now)
                if now - since <= self.job_timeout:
                    continue
                self.queue.fail(
                    LeasedJob(
                        job=batch[key],
                        job_hash=key,
                        worker_id=worker_id,
                        path=self.queue.leases_dir / worker_id / f"{key}.json",
                    ),
                    f"job_timeout: no result within job_timeout="
                    f"{self.job_timeout}s; the worker was terminated",
                )
                raise ExperimentError(
                    f"job {key[:16]}... ({batch[key].kind!r}) did not finish "
                    f"within job_timeout={self.job_timeout}s; "
                    f"{len(remaining)} job(s) still outstanding"
                )
        if any(child.is_alive() for child in children.values()):
            return
        remaining = set(self.queue.outstanding(sorted(remaining)))
        if remaining:
            self._raise_if_quarantined(remaining)
            raise ExperimentError(
                f"every local worker exited with {len(remaining)} job(s) of "
                f"this batch outstanding; failure tracebacks are under "
                f"{self.queue.failures_dir}"
            )

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
