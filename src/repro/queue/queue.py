"""Shared job queue: lease-based work distribution over a directory.

The queue is a directory any number of producers and workers share — on
one box, or across machines via a network filesystem (nothing below needs
more than atomic rename within one filesystem; an object-store backend
would swap the directory primitives for conditional puts). Layout::

    <queue_dir>/
        pending/<job_hash>.json        # enqueued job specs {"kind","payload"}
        leases/<worker_id>/<hash>.json # specs a worker is executing
        heartbeats/<worker_id>.json    # liveness beacons, one per worker
        results/<hash>.json            # the ArtifactStore (+ checkpoints/)
        failures/<hash>.jsonl          # one traceback line per failed run
        quarantine/<hash>.json         # specs that failed MAX_FAILURES times
        quarantine/<hash>.rejected     # specs lease() could not trust

``failures/`` and ``quarantine/`` appear on the first failure or
rejected spec; a queue whose jobs all succeed never touches them.

**Leasing.** A worker takes a job by atomically renaming its spec file
from ``pending/`` into its own ``leases/<worker_id>/`` directory — rename
either succeeds for exactly one contender or raises, so no lock manager is
needed and two workers can never both hold the same job. A queue takes its
candidates from one sorted listing of ``pending/``, rescanned only once it
runs dry. Acking (after the result is stored) deletes the lease file;
releasing renames it back. A claimed spec that does not decode into a
job hashing to its own file name — malformed, or a foreign file dropped
into ``pending/`` — is parked as ``quarantine/<hash>.rejected`` and
:meth:`JobQueue.lease` raises, so no worker runs one job under another's
hash.

**Heartbeats.** Every worker rewrites its heartbeat file on a fixed
cadence (a daemon thread in :class:`~repro.queue.worker.QueueWorker`, so a
long job does not starve the beacon); a lease rewrites it only when a beat
is due. A reaper pass —
:meth:`JobQueue.reap` — expires any worker whose heartbeat is older than
``lease_ttl`` (or missing) and renames its leased specs back to
``pending/``. Every worker and the scheduler's wait loop reap: at the
start of a drain, on every idle poll (a lease that found nothing), and
otherwise at most once per heartbeat interval (``lease_ttl / 4`` by
default). A SIGKILLed worker's jobs therefore requeue within one TTL plus
one heartbeat interval of its last beat, as long as some other worker is
idle or between jobs. A worker known to have stopped is retired at once
(:meth:`JobQueue.retire`: the same requeue and cleanup, no TTL wait).

**Quarantine.** A job whose function raises is not re-leased forever:
:meth:`JobQueue.fail` appends the traceback to ``failures/<hash>.jsonl``
and releases the job for a retry, until the file holds
:data:`MAX_FAILURES` records; then the spec moves to
``quarantine/<hash>.json``, out of rotation. :meth:`JobQueue.enqueue`
treats a quarantined hash as present, so re-running a plan does not
resurrect it; delete both of its files to give it a fresh set of
attempts.

**Exactly-once results from at-least-once execution.** Reaping a worker
that was merely slow (not dead) means two workers may execute the same
job. That is safe by construction: results are content-addressed by the
job hash in the artifact store, job functions are pure, and every store
write is atomic — both workers produce the identical entry, and a worker
finding the result already stored acks without executing. Requeue/retry
therefore never forks state; it only wastes the duplicated compute.

Timestamps ride *inside* the heartbeat file (wall clock of the writer),
falling back to the file's mtime if unreadable; ``lease_ttl`` must
comfortably exceed heartbeat cadence + clock skew between machines.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ExperimentError
from repro.experiments.scheduler import Job
from repro.queue.artifacts import ArtifactStore
from repro.utils.serialization import load_json, write_json_durably

__all__ = [
    "JobQueue",
    "LeasedJob",
    "QueueStats",
    "DEFAULT_LEASE_TTL",
    "MAX_FAILURES",
]

DEFAULT_LEASE_TTL = 60.0
"""Default seconds of heartbeat silence before a worker's leases requeue."""

MAX_FAILURES = 3
"""Failed executions after which a job moves to ``quarantine/``."""


def _spec_names(directory: Path) -> list[str]:
    """Sorted ``*.json`` file names in ``directory`` from one scan.

    Temp files (``<name>.json.<pid>.<uuid>.tmp``) and ``.rejected``
    specs do not match; a missing directory holds nothing.
    """
    try:
        with os.scandir(directory) as entries:
            return sorted(
                entry.name
                for entry in entries
                if entry.name.endswith(".json")
                and not entry.name.startswith(".")
            )
    except FileNotFoundError:
        return []


def _spec_hashes(directory: Path) -> list[str]:
    """The job hashes of :func:`_spec_names` (the names minus ``.json``)."""
    return [name[: -len(".json")] for name in _spec_names(directory)]


def _worker_names(leases_dir: Path) -> list[str]:
    """Sorted worker directory names under ``leases/``."""
    try:
        with os.scandir(leases_dir) as entries:
            return sorted(entry.name for entry in entries if entry.is_dir())
    except FileNotFoundError:
        return []


@dataclass(frozen=True)
class LeasedJob:
    """One job a worker currently holds: the spec plus its lease file."""

    job: Job
    job_hash: str
    worker_id: str
    path: Path


@dataclass(frozen=True)
class QueueStats:
    """A point-in-time census of the queue directory. ``quarantined``
    counts both the specs that failed :data:`MAX_FAILURES` times and the
    ones :meth:`JobQueue.lease` rejected."""

    pending: int
    leased: int
    stored: int
    workers: int
    quarantined: int

    @classmethod
    def read(cls, queue_dir: str | Path) -> "QueueStats":
        """Count a queue directory's contents without creating anything.

        Counts race with live workers. Raises :class:`ExperimentError` if
        ``queue_dir`` is not a queue directory (no ``pending/`` inside).
        """
        root = Path(queue_dir)
        if not (root / "pending").is_dir():
            raise ExperimentError(
                f"{root} is not a queue directory (no pending/ inside)"
            )
        leases_dir = root / "leases"
        quarantine = root / "quarantine"
        workers = _worker_names(leases_dir)
        return cls(
            pending=len(_spec_names(root / "pending")),
            leased=sum(
                len(_spec_names(leases_dir / name)) for name in workers
            ),
            stored=len(ArtifactStore(root / "results")),
            workers=len(workers),
            quarantined=len(_spec_names(quarantine))
            + len(list(quarantine.glob("*.rejected"))),
        )


class JobQueue:
    """A shared-directory job queue with leasing, heartbeats, and reaping.

    Every operation is safe under concurrent producers, workers, and
    reapers; none holds a lock. ``lease_ttl`` is the liveness contract:
    a worker whose heartbeat goes stale for longer than this forfeits its
    leases.
    """

    def __init__(
        self, queue_dir: str | Path, *, lease_ttl: float = DEFAULT_LEASE_TTL
    ) -> None:
        if lease_ttl <= 0:
            raise ExperimentError(
                f"lease_ttl must be > 0 seconds, got {lease_ttl}"
            )
        self.root = Path(queue_dir)
        self.lease_ttl = float(lease_ttl)
        # Several beats per TTL, so one missed beat (GC pause, NFS hiccup)
        # never looks like death.
        self.heartbeat_interval = self.lease_ttl / 4.0
        # Worker name -> the stamp of the last beat this queue wrote.
        self._beats: dict[str, float] = {}
        # pending/ names not yet tried by lease(), largest hash first.
        self._candidates: list[str] = []
        self.pending_dir = self.root / "pending"
        self.leases_dir = self.root / "leases"
        self.heartbeats_dir = self.root / "heartbeats"
        self.failures_dir = self.root / "failures"
        self.quarantine_dir = self.root / "quarantine"
        self.store = ArtifactStore(self.root / "results")
        for directory in (
            self.pending_dir,
            self.leases_dir,
            self.heartbeats_dir,
            self.store.root,
        ):
            directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #
    # producing
    # ------------------------------------------------------------------ #
    def enqueue(self, job: Job) -> bool:
        """Make ``job`` available for leasing; returns False if redundant.

        Redundant means its result is already in the artifact store, an
        identical spec is already pending or leased, or it is quarantined
        — the content hash dedupes across producers, so N schedulers
        enqueueing the same plan yield one execution, and a poison job
        stays out of rotation. The spec file is written atomically through
        a unique temp name; racing producers both "win" with identical
        content.
        """
        key = job.job_hash()
        name = f"{key}.json"
        if (
            self.store.contains(key)
            or (self.pending_dir / name).exists()
            or self._is_leased(name)
            or (self.quarantine_dir / name).exists()
        ):
            return False
        write_json_durably(self.pending_dir / name, job.spec())
        return True

    def enqueue_many(self, jobs: Iterable[Job]) -> int:
        """Enqueue a batch; returns how many were newly enqueued."""
        return sum(1 for job in jobs if self.enqueue(job))

    # ------------------------------------------------------------------ #
    # leasing
    # ------------------------------------------------------------------ #
    def lease(self, worker_id: str) -> LeasedJob | None:
        """Atomically claim one pending job for ``worker_id`` (or None).

        Claiming renames the spec file into ``leases/<worker_id>/``;
        losing a rename race to another worker just moves on to the next
        candidate. The heartbeat is rewritten first unless this queue
        wrote ``worker_id``'s beat within :attr:`heartbeat_interval`, so
        a job can never be held by a worker that looks dead from the
        moment it leased. Candidates are taken in hash order from one
        sorted listing of ``pending/``, kept across calls and rescanned
        only once it runs dry: deterministic across workers, which
        spreads contenders instead of having every worker fight over one
        file (each loser retries the next candidate), and a drain scans
        ``pending/`` a bounded number of times rather than once per job.
        A spec enqueued or requeued meanwhile waits for the next scan.
        """
        worker_dir = self.leases_dir / self._safe_worker_id(worker_id)
        worker_dir.mkdir(parents=True, exist_ok=True)
        beat = self._beats.get(worker_dir.name)
        if beat is None or time.time() - beat > self.heartbeat_interval:
            self.heartbeat(worker_id)
        rescanned = False
        while True:
            if not self._candidates:
                if rescanned:
                    return None
                # Reversed, so the smallest hash pops off the end.
                self._candidates = _spec_names(self.pending_dir)[::-1]
                rescanned = True
                continue
            name = self._candidates.pop()
            claimed = worker_dir / name
            try:
                os.replace(self.pending_dir / name, claimed)
            except FileNotFoundError:
                continue  # another worker won this rename; try the next
            key = name[: -len(".json")]
            try:
                job = Job.from_spec(load_json(claimed))
                if job.job_hash() != key:
                    raise ExperimentError(
                        f"it holds a {job.kind!r} spec that hashes to "
                        f"{job.job_hash()[:16]}..., not to its own file name"
                    )
            except (ExperimentError, ValueError, OSError) as exc:
                # A malformed or foreign spec (bad shape, bad JSON,
                # undecodable bytes, another job's spec) must not wedge
                # the queue or run under the wrong hash: park it out of
                # rotation and keep leasing.
                self.quarantine_dir.mkdir(exist_ok=True)
                parked = self.quarantine_dir / f"{key}.rejected"
                os.replace(claimed, parked)
                raise ExperimentError(
                    f"queue spec {name} is malformed and was quarantined "
                    f"as {parked}: {exc}"
                ) from exc
            return LeasedJob(
                job=job, job_hash=key, worker_id=worker_id, path=claimed
            )

    def ack(self, leased: LeasedJob) -> None:
        """Complete a lease: the result is stored, drop the spec file.

        Tolerates the file having been reaped away (the slow-worker race):
        the job will be re-leased elsewhere, find its result stored, and
        ack again harmlessly.
        """
        leased.path.unlink(missing_ok=True)

    def release(self, leased: LeasedJob) -> None:
        """Return a leased job to ``pending/`` without completing it."""
        try:
            os.replace(leased.path, self.pending_dir / leased.path.name)
        except FileNotFoundError:
            pass  # already reaped back or acked concurrently

    def fail(self, leased: LeasedJob, error: str) -> None:
        """Record a failed execution of ``leased``; retry or quarantine it.

        Appends one JSON line (worker, wall-clock time, ``error`` — the
        traceback text) to ``failures/<hash>.jsonl``. Once that file holds
        :data:`MAX_FAILURES` records the spec moves to
        ``quarantine/<hash>.json``; before that, the job is released to
        ``pending/`` for a retry.
        """
        self.failures_dir.mkdir(exist_ok=True)
        path = self.failure_path(leased.job_hash)
        record = {
            "worker_id": leased.worker_id,
            "time": time.time(),
            "traceback": error,
        }
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        with open(path, encoding="utf-8") as handle:
            failures = sum(1 for _ in handle)
        if failures < MAX_FAILURES:
            self.release(leased)
            return
        self.quarantine_dir.mkdir(exist_ok=True)
        try:
            os.replace(leased.path, self.quarantine_dir / leased.path.name)
        except FileNotFoundError:
            # Reaped back to pending/ meanwhile: the next failure, from
            # whichever worker leases it, quarantines it.
            pass

    def failure_path(self, job_hash: str) -> Path:
        """The JSONL file collecting ``job_hash``'s failure tracebacks."""
        return self.failures_dir / f"{job_hash}.jsonl"

    # ------------------------------------------------------------------ #
    # heartbeats and reaping
    # ------------------------------------------------------------------ #
    def heartbeat(self, worker_id: str, *, now: float | None = None) -> Path:
        """Rewrite ``worker_id``'s liveness beacon (atomic replace).

        The stamp written (``now``, default the wall clock) is also
        remembered, so :meth:`lease` can tell whether a beat is due.
        """
        name = self._safe_worker_id(worker_id)
        path = self.heartbeats_dir / f"{name}.json"
        stamp = time.time() if now is None else float(now)
        self._beats[name] = stamp
        entry = {"worker_id": str(worker_id), "pid": os.getpid(), "time": stamp}
        temporary = path.with_name(
            f"{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
        )
        try:
            temporary.write_text(json.dumps(entry) + "\n")
            os.replace(temporary, path)
        finally:
            temporary.unlink(missing_ok=True)
        return path

    def heartbeat_age(
        self, worker_id: str, *, now: float | None = None
    ) -> float | None:
        """Seconds since ``worker_id`` last beat, or None if it never has.

        Prefers the timestamp written inside the beacon; falls back to the
        file's mtime if the content is unreadable.
        """
        path = self.heartbeats_dir / f"{self._safe_worker_id(worker_id)}.json"
        reference = time.time() if now is None else float(now)
        try:
            entry = load_json(path)
            stamp = float(entry["time"])
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
            try:
                stamp = path.stat().st_mtime
            except OSError:
                return None
        return max(0.0, reference - stamp)

    def reap(self, *, now: float | None = None) -> list[str]:
        """Requeue every lease held by a stale or heartbeat-less worker.

        A worker is stale when its heartbeat is older than ``lease_ttl``
        (or missing entirely — e.g. its beacon was cleaned up but a lease
        file survived a partial crash). Returns the requeued job hashes.
        Only a stale worker's lease directory is listed. Safe to run from
        any process at any time; concurrent reapers race benignly on the
        renames.
        """
        requeued: list[str] = []
        for name in _worker_names(self.leases_dir):
            age = self.heartbeat_age(name, now=now)
            if age is not None and age <= self.lease_ttl:
                continue
            requeued.extend(self.retire(name))
        return requeued

    def retire(self, worker_id: str) -> list[str]:
        """Requeue every lease ``worker_id`` holds, then drop its bookkeeping.

        For a worker known to have stopped (reaped as stale, or a local
        worker process its scheduler has joined): its leased specs go back
        to ``pending/``, and once its lease directory is empty, that
        directory and its heartbeat are removed. Returns the requeued job
        hashes; races with concurrent ackers and reapers are benign.
        """
        name = self._safe_worker_id(worker_id)
        worker_dir = self.leases_dir / name
        requeued: list[str] = []
        for lease in _spec_names(worker_dir):
            try:
                os.replace(worker_dir / lease, self.pending_dir / lease)
            except FileNotFoundError:
                continue  # acked/released/reaped concurrently
            requeued.append(lease[: -len(".json")])
        # Ignore races with the worker coming back to life.
        try:
            if any(worker_dir.iterdir()):
                return requeued
        except FileNotFoundError:
            pass
        (self.heartbeats_dir / f"{name}.json").unlink(missing_ok=True)
        self._beats.pop(name, None)
        try:
            worker_dir.rmdir()
        except OSError:
            pass
        return requeued

    # ------------------------------------------------------------------ #
    # census
    # ------------------------------------------------------------------ #
    def pending_hashes(self) -> list[str]:
        """Hashes currently waiting to be leased (sorted)."""
        return _spec_hashes(self.pending_dir)

    def leased_hashes(self) -> dict[str, list[str]]:
        """worker directory name → hashes it currently holds."""
        return {
            worker: _spec_hashes(self.leases_dir / worker)
            for worker in _worker_names(self.leases_dir)
        }

    def quarantined_hashes(self) -> list[str]:
        """Hashes moved out of rotation after :data:`MAX_FAILURES` failures."""
        return _spec_hashes(self.quarantine_dir)

    def outstanding(self, hashes: Sequence[str] | None = None) -> list[str]:
        """Of ``hashes`` (default: everything enqueued), those without a
        stored result yet — the completion predicate schedulers wait on."""
        if hashes is None:
            keys = set(self.pending_hashes())
            for held in self.leased_hashes().values():
                keys.update(held)
        else:
            keys = set(hashes)
        return sorted(key for key in keys if not self.store.contains(key))

    def stats(self) -> QueueStats:
        """A point-in-time census (counts race with live workers)."""
        return QueueStats.read(self.root)

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    @staticmethod
    def _safe_worker_id(worker_id: str) -> str:
        """Worker ids become directory names; reject path-meaningful ones."""
        text = str(worker_id)
        if not text or "/" in text or "\\" in text or text in (".", ".."):
            raise ExperimentError(
                f"worker id {worker_id!r} is not a valid directory name"
            )
        return text

    def _is_leased(self, name: str) -> bool:
        return any(
            (self.leases_dir / worker / name).exists()
            for worker in _worker_names(self.leases_dir)
        )
