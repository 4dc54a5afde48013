"""Job queue + content-addressed artifact store: the one job executor.

Producers enqueue
:class:`~repro.experiments.scheduler.Job` specs into a shared directory,
:class:`QueueWorker` processes lease them via atomic rename, heartbeat on
a fixed cadence, and push results into a content-addressed
:class:`ArtifactStore` whose every entry embeds the full job spec
(provenance: any artifact reloads and re-runs from its own metadata —
:meth:`Artifact.replay`); the store alone writes and reads that entry
format. A reaper pass expires stale leases so a dead worker's jobs
requeue; results stay exactly-once via the content hash even though
execution is at-least-once. A job that keeps raising is quarantined after
:data:`MAX_FAILURES` attempts, its tracebacks on disk, and a pending spec
that does not hash to its own file name is quarantined unrun.
:class:`QueueScheduler` plugs the queue into
``run_experiment(..., scheduler=...)``: it drains the batch with
``workers`` local executors (itself inline, through the same loop as a
:class:`QueueWorker`, plus ``workers - 1`` local worker processes),
optionally under a per-job ``job_timeout`` hang guard, and the queued
path is bitwise-equal to an in-process run.

Quickstart (one shared directory, any number of processes/machines)::

    from repro.experiments import run_experiment
    from repro.queue import QueueScheduler

    scheduler = QueueScheduler("/shared/queue", lease_ttl=60.0, workers=4)
    result = run_experiment("fig3_cost", {"costs": (5.0, 7.0)},
                            scheduler=scheduler)

    # elsewhere, as many times as you like:
    #   python -m repro.experiments.run worker --queue-dir /shared/queue
"""

from repro.queue.artifacts import Artifact, ArtifactStore
from repro.queue.queue import (
    DEFAULT_LEASE_TTL,
    MAX_FAILURES,
    JobQueue,
    LeasedJob,
    QueueStats,
)
from repro.queue.worker import (
    QueueScheduler,
    QueueWorker,
    WorkerStats,
    default_worker_id,
)

__all__ = [
    "Artifact",
    "ArtifactStore",
    "DEFAULT_LEASE_TTL",
    "JobQueue",
    "LeasedJob",
    "MAX_FAILURES",
    "QueueStats",
    "QueueScheduler",
    "QueueWorker",
    "WorkerStats",
    "default_worker_id",
]
