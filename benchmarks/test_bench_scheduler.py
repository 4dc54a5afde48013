"""Job queue executor: sharded fig3 DRL trainings, speedup evidence.

Times a Fig. 3 cost sweep's per-market DRL trainings executed three ways
and records the evidence in ``benchmarks/results/scheduler_speedup.txt``:

- **Sequential** — no scheduler: the plan's jobs run in-process, one
  market after the next.
- **Scheduled, multi-worker** — the same markets as ``market_scheme``
  jobs drained by ``QueueScheduler(queue_dir, workers=3)``: the inline
  worker plus two local worker processes. Exact by construction: each
  job runs the identical seeded training, floats survive the JSON wire
  bitwise (pinned in ``tests/test_experiments_scheduler.py``).
- **Resumed from the store** — a second scheduled run against the same
  queue directory; every job is served from its artifact store, no
  worker runs. This is the interrupted-run recovery path, and its time is
  pure store-read overhead.
"""

import os
import time
from dataclasses import replace

import pytest

from repro.experiments import ExperimentConfig, run_experiment
from repro.queue import QueueScheduler
from repro.utils.tables import Table

pytestmark = pytest.mark.slow

# ≥ 4 markets per the acceptance criteria; 6 matches the paper's sweep
# densities and gives the executors two rounds at 3 workers.
COSTS = (5.0, 5.8, 6.6, 7.4, 8.2, 9.0)
WORKERS = 3
SCHEMES = ("drl",)


def _evaluations(result):
    return {
        cost: {
            scheme: vars(evaluation)
            for scheme, evaluation in by_scheme.items()
        }
        for cost, by_scheme in result.evaluations.items()
    }


def fig3_cost_sweep(config, *, costs, schemes, scheduler=None):
    return run_experiment(
        "fig3_cost",
        {"config": config, "costs": costs, "schemes": schemes},
        scheduler=scheduler,
    )


def test_scheduler_speedup(record_table, tmp_path):
    # The multiseed bench's reduced quick budget: heavy enough per market
    # (~seconds of DRL training) that fan-out dominates worker start-up,
    # light enough to keep the benchmark in tens of seconds.
    config = replace(ExperimentConfig.quick(), num_episodes=40)

    start = time.perf_counter()
    sequential = fig3_cost_sweep(config, costs=COSTS, schemes=SCHEMES)
    sequential_s = time.perf_counter() - start

    scheduler = QueueScheduler(tmp_path, workers=WORKERS)
    start = time.perf_counter()
    scheduled = fig3_cost_sweep(
        config, costs=COSTS, schemes=SCHEMES, scheduler=scheduler
    )
    scheduled_s = time.perf_counter() - start
    # Sharding never changes data: bitwise-equal to the sequential sweep.
    assert _evaluations(scheduled) == _evaluations(sequential)
    assert scheduler.jobs_executed == len(COSTS)

    resumed_scheduler = QueueScheduler(tmp_path, workers=WORKERS)
    start = time.perf_counter()
    resumed = fig3_cost_sweep(
        config, costs=COSTS, schemes=SCHEMES, scheduler=resumed_scheduler
    )
    resumed_s = time.perf_counter() - start
    # The resumed run is pure store reads: same numbers, zero executed.
    assert _evaluations(resumed) == _evaluations(sequential)
    assert resumed_scheduler.jobs_executed == 0
    assert resumed_scheduler.cache_hits == len(COSTS)

    # Fan-out speedup scales with the cores actually granted to the run
    # (a single-core box can at best break even), so record the budget
    # next to the measurement.
    cores = (
        len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity")
        else os.cpu_count()
    )
    table = Table(
        headers=("path", "markets", "workers", "cores", "seconds", "speedup"),
        title="Scheduler — fig3 DRL trainings: sequential vs sharded vs resumed",
    )
    table.add_row("sequential", len(COSTS), 1, cores, sequential_s, 1.0)
    table.add_row(
        f"scheduled ({WORKERS} workers)",
        len(COSTS),
        WORKERS,
        cores,
        scheduled_s,
        sequential_s / scheduled_s,
    )
    table.add_row(
        "resumed from store",
        len(COSTS),
        WORKERS,
        cores,
        resumed_s,
        sequential_s / resumed_s,
    )
    record_table("scheduler_speedup", table)

    # Resume must be dramatically cheaper than recomputing — that is the
    # point of the store (the multi-worker speedup is recorded as
    # evidence but not asserted; it depends on the core budget).
    assert resumed_s < sequential_s / 5
