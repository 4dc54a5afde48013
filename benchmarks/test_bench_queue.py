"""Job queue: throughput, per-job lease overhead, resume-from-artifacts.

Pushes a batch of tiny ``equilibrium_cell`` jobs through the shared-
directory queue three ways and records the evidence in
``benchmarks/results/queue_throughput.txt`` (plus a structured
``queue_throughput.json``):

- **Direct** — ``execute_job`` in a loop: the floor the queue's
  bookkeeping is measured against.
- **Queued** — enqueue + one draining :class:`QueueWorker` (lease →
  execute → store → ack; the heartbeat thread beats on its cadence, and
  a lease rewrites the beacon only when a beat is due). The per-job
  difference against direct is the queue's full overhead: the fsync'd
  spec file, the rename-lease, the fsync'd result entry, the ack unlink.
  Tiny cells are the worst case — on real DRL jobs (seconds to minutes
  each) this overhead is noise.
- **Resumed** — a :class:`QueueScheduler` batch against the populated
  store: every job served from artifacts, nothing executed.

Core-budget caveat: a single queue+worker on one box adds overhead, never
speedup — the queue's win is horizontal (N workers on M machines against
one shared directory) and kill-resume, neither of which a single-process
benchmark can exhibit. The recorded numbers size the *cost* of those
properties, not the fleet's gain; fan-out speedup scales with the cores
and machines actually attached.
"""

import os
import time

import pytest

from repro.core.stackelberg import StackelbergMarket
from repro.entities.vmu import sample_population
from repro.experiments.scheduler import Job, execute_job, market_to_payload
from repro.queue import JobQueue, QueueScheduler, QueueWorker
from repro.utils.tables import Table

pytestmark = pytest.mark.slow

JOBS = 40  # tiny cells: milliseconds each, so bookkeeping dominates


def _jobs():
    return [
        Job(
            "equilibrium_cell",
            {
                "market": market_to_payload(
                    StackelbergMarket(sample_population(4, seed=seed))
                )
            },
        )
        for seed in range(JOBS)
    ]


def test_queue_throughput(record_table, record_json, tmp_path):
    jobs = _jobs()

    start = time.perf_counter()
    direct = [execute_job(job) for job in jobs]
    direct_s = time.perf_counter() - start

    queue = JobQueue(tmp_path / "queue", lease_ttl=60.0)
    start = time.perf_counter()
    queue.enqueue_many(jobs)
    stats = QueueWorker(
        queue, worker_id="bench", poll_interval=0.01
    ).run(drain=True)
    queued_s = time.perf_counter() - start
    assert stats.executed == JOBS
    # The queued path is the direct path plus bookkeeping — bitwise.
    assert [queue.store.get(job).result for job in jobs] == direct

    resumed = QueueScheduler(tmp_path / "queue", poll_interval=0.01)
    start = time.perf_counter()
    results = resumed.run(jobs)
    resumed_s = time.perf_counter() - start
    assert resumed.cache_hits == JOBS
    assert resumed.jobs_executed == 0
    assert results == direct

    overhead_ms = (queued_s - direct_s) / JOBS * 1e3
    cores = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count()
    )
    table = Table(
        headers=("path", "jobs", "cores", "seconds", "jobs/s"),
        title=(
            "Queue — tiny equilibrium cells: direct vs queued vs resumed "
            "(single worker: measures overhead, not fleet speedup)"
        ),
    )
    table.add_row("direct", JOBS, cores, direct_s, JOBS / direct_s)
    table.add_row(
        "queued (lease+store+ack)", JOBS, cores, queued_s, JOBS / queued_s
    )
    table.add_row(
        "resumed from artifacts", JOBS, cores, resumed_s, JOBS / resumed_s
    )
    record_table("queue_throughput", table)
    record_json(
        "queue_throughput",
        {
            "jobs": JOBS,
            "cores": cores,
            "direct_s": direct_s,
            "queued_s": queued_s,
            "resumed_s": resumed_s,
            "queued_jobs_per_s": JOBS / queued_s,
            "lease_ack_overhead_ms_per_job": overhead_ms,
            "resume_speedup_vs_direct": direct_s / resumed_s,
            "caveat": (
                "single worker on one box: numbers size the queue's "
                "bookkeeping cost, not fleet fan-out; speedup scales "
                "with workers/machines attached to the directory"
            ),
        },
    )

    # The queue must stay usable for tiny jobs (bounded bookkeeping) and
    # resume must beat recomputing. The overhead measures ~1.6-2.3 ms per
    # job on a shared 2-core host (ext4); 25 ms is ~10x that, room for the
    # host's fsync spread, so a real regression of the drain loop fails.
    assert overhead_ms < 25.0
    assert resumed_s < direct_s + queued_s  # serves from disk, no solver
