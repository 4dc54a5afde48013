"""Command-line entry point: run any registered experiment.

Usage::

    python -m repro.experiments.run list
    python -m repro.experiments.run describe fig3_cost
    python -m repro.experiments.run run fig2 --param episodes=2
    python -m repro.experiments.run run fig3_cost --param costs=5,7,9 \
        --workers 4 --queue-dir .queue --resume
    python -m repro.experiments.run run multiseed --param seeds=0,1,2,3 \
        --workers 2
    python -m repro.experiments.run schedule --jobs jobs.json --workers 4 \
        --queue-dir .queue --resume

    # shared-queue path: enqueue a plan, drain it with a worker fleet
    python -m repro.experiments.run schedule --jobs jobs.json \
        --queue-dir /shared/queue --enqueue
    python -m repro.experiments.run worker --queue-dir /shared/queue \
        --ttl 60 --drain
    python -m repro.experiments.run run fig3_cost --queue-dir /shared/queue
    python -m repro.experiments.run queue stats /shared/queue

The ``run`` subcommand works for **every** experiment in the
:mod:`repro.experiments.api` registry (``list`` names them, ``describe
<name>`` prints the typed parameter schema): the spec's plan compiles the
run into jobs, which execute in-process by default. ``--workers``,
``--queue-dir`` and ``--resume`` — defined once, in a parent parser shared
by every subcommand, so the flags cannot drift — route those jobs through
the job queue (:mod:`repro.queue`): independent units (per-seed DRL
trainings, per-market-point trainings, per-grid-cell equilibria, city
chunks) fan out across ``--workers`` local executors, and every finished
unit is stored in the queue directory's artifact store, so an interrupted
run resumes instead of recomputing. ``--workers N`` (N > 1) without
``--queue-dir`` runs over a temporary queue directory, removed afterwards.
Results are bitwise identical either way.

The default preset is ``quick`` (a reduced training budget);
``--param preset=paper`` uses the full Sec. V-A budget (E = 500 episodes —
slow on a laptop but faithful). ``run multiseed --workers k`` fans the
seeds-axis comparison out as one job per seed and DRL/greedy scheme over
``k`` executors.

The ``schedule`` subcommand executes an explicit job-spec file — a JSON
list of ``{"kind": ..., "payload": ...}`` entries (the
:meth:`repro.experiments.scheduler.Job.spec` wire form, which
:meth:`repro.experiments.api.ExperimentPlan.job_specs` emits) — through
the queue: the path for splitting one experiment's jobs across machines
that share (or later merge) a queue directory.

A ``--queue-dir`` may be shared: any number of ``worker`` processes — on
any machines sharing the filesystem — lease, execute, and ack its jobs,
with heartbeat-based lease expiry so a killed worker's jobs requeue.
``schedule --enqueue`` feeds a plan in without executing; the queued path
returns results bitwise identical to an in-process run. ``queue stats
<dir>`` prints a read-only census of a queue directory (pending, leased,
stored, workers, quarantined).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import tempfile
from pathlib import Path

from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.api import (
    ExperimentSpec,
    experiment_names,
    get_experiment,
    run_experiment,
)
from repro.experiments.scheduler import Job
from repro.utils.serialization import load_json, save_json
from repro.utils.tables import Table

__all__ = [
    "main",
    "run_main",
    "list_main",
    "describe_main",
    "schedule_main",
    "worker_main",
    "queue_main",
]


# ------------------------------------------------------------------ #
# shared flags — ONE definition for every subcommand, so
# --workers/--queue-dir/--resume cannot drift
# ------------------------------------------------------------------ #
def _scheduler_parent() -> argparse.ArgumentParser:
    """Parent parser carrying the scheduler and output flags."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("scheduler")
    group.add_argument(
        "--workers",
        type=int,
        default=1,
        help=(
            "local executors for the experiment's independent units "
            "(per-seed / per-market-point DRL trainings, grid cells)"
        ),
    )
    group.add_argument(
        "--resume",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="serve cached units instead of re-running (default on)",
    )
    group.add_argument(
        "--queue-dir",
        type=Path,
        default=None,
        help=(
            "route jobs through the job queue at this directory: finished "
            "units are stored there so interrupted runs resume, and "
            "worker fleets may drain it too (see the `worker` subcommand)"
        ),
    )
    group.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        help=(
            "seconds of worker heartbeat silence before its queue leases "
            "requeue (with --queue-dir; default 60)"
        ),
    )
    parent.add_argument(
        "--output", type=Path, default=None, help="directory for JSON results"
    )
    return parent


def _validate_workers(parser: argparse.ArgumentParser, args) -> None:
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    lease_ttl = getattr(args, "lease_ttl", None)
    if lease_ttl is not None:
        if getattr(args, "queue_dir", None) is None:
            parser.error("--lease-ttl only applies with --queue-dir")
        if lease_ttl <= 0:
            parser.error(f"--lease-ttl must be > 0 seconds, got {lease_ttl}")
    job_timeout = getattr(args, "job_timeout", None)
    if job_timeout is not None and job_timeout <= 0:
        parser.error(f"--job-timeout must be > 0 seconds, got {job_timeout}")


@contextlib.contextmanager
def _scheduler(args, *, force: bool = False):
    """The scheduler the parsed flags describe (None → run in-process).

    Any of ``--queue-dir``, ``--workers N`` (N > 1), ``--job-timeout`` or
    ``force`` selects a :class:`repro.queue.QueueScheduler`; without a
    ``--queue-dir`` it runs over a temporary directory that is removed on
    exit.
    """
    queue_dir = args.queue_dir
    job_timeout = getattr(args, "job_timeout", None)
    if (
        not force
        and queue_dir is None
        and args.workers == 1
        and job_timeout is None
    ):
        yield None
        return
    from repro.queue import DEFAULT_LEASE_TTL, QueueScheduler

    with (
        tempfile.TemporaryDirectory(prefix="repro-queue-")
        if queue_dir is None
        else contextlib.nullcontext(queue_dir)
    ) as directory:
        yield QueueScheduler(
            directory,
            lease_ttl=(
                DEFAULT_LEASE_TTL if args.lease_ttl is None else args.lease_ttl
            ),
            workers=args.workers,
            resume=args.resume,
            job_timeout=job_timeout,
        )


# ------------------------------------------------------------------ #
# run / list / describe — the generic spec-driven interface
# ------------------------------------------------------------------ #
def _parse_cli_params(spec: ExperimentSpec, pairs: list[str]) -> dict:
    params = {}
    for pair in pairs:
        key, separator, text = pair.partition("=")
        if not separator or not key:
            raise ConfigurationError(
                f"--param wants KEY=VALUE, got {pair!r}"
            )
        params[key] = spec.param(key).parse(text)
    return params


def run_main(argv: list[str] | None = None) -> int:
    """The ``run`` subcommand: execute any registered experiment."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments run",
        parents=[_scheduler_parent()],
        description=(
            "Run one registered experiment. Parameters come from the "
            "experiment's typed schema (`describe <name>` prints it); "
            "--workers/--queue-dir/--resume route the run through the "
            "job queue — fan-out, caching, and kill-resume for every "
            "experiment, bitwise-equal to the in-process run."
        ),
    )
    parser.add_argument(
        "experiment",
        metavar="EXPERIMENT",
        help=f"registered experiment ({', '.join(experiment_names())})",
    )
    parser.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="set one spec parameter (repeatable), e.g. --param seeds=0,1,2",
    )
    args = parser.parse_args(argv)
    _validate_workers(parser, args)
    try:
        spec = get_experiment(args.experiment)
        params = _parse_cli_params(spec, args.param)
    except ConfigurationError as exc:
        parser.error(str(exc))
    with _scheduler(args) as scheduler:
        try:
            result = run_experiment(spec, params, scheduler=scheduler)
        except ValueError as exc:
            # The specs' validations (too few seeds, draws < 2, unknown
            # scheme names, empty sweep axes) raise ConfigurationError, a
            # ValueError — a clean CLI error, not a traceback. Other
            # ValueErrors from the library get the same treatment.
            parser.error(str(exc))
    print(spec.render_result(result))
    if scheduler is not None:
        print(
            f"\n{scheduler.jobs_executed} job(s) executed, "
            f"{scheduler.cache_hits} from cache"
        )
    if args.output is not None:
        target = save_json(
            args.output / f"{spec.name}.json", spec.result_to_payload(result)
        )
        print(f"\nwrote {target}")
    return 0


def list_main(argv: list[str] | None = None) -> int:
    """The ``list`` subcommand: every registered experiment."""
    argparse.ArgumentParser(
        prog="repro-experiments list",
        description="List the registered experiments.",
    ).parse_args(argv)
    table = Table(
        headers=("experiment", "description"),
        title="Registered experiments — run <name> --param k=v",
    )
    for name in experiment_names():
        table.add_row(name, get_experiment(name).description)
    print(table)
    return 0


def describe_main(argv: list[str] | None = None) -> int:
    """The ``describe`` subcommand: one experiment's parameter schema."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments describe",
        description="Show one experiment's typed parameter schema.",
    )
    parser.add_argument("experiment", metavar="EXPERIMENT")
    args = parser.parse_args(argv)
    try:
        spec = get_experiment(args.experiment)
    except ConfigurationError as exc:
        parser.error(str(exc))
    print(f"{spec.name} — {spec.description}")
    print(f"result type: {spec.result_type.__name__}")
    table = Table(
        headers=("parameter", "type", "default", "help"),
        title=f"Parameters — run {spec.name} --param KEY=VALUE",
    )
    for param in spec.params:
        default = "" if param.default is None else repr(param.default)
        table.add_row(param.name, param.type, default, param.help)
    print(table)
    return 0


# ------------------------------------------------------------------ #
# worker — serve a shared job queue
# ------------------------------------------------------------------ #
def worker_main(argv: list[str] | None = None) -> int:
    """The ``worker`` subcommand: lease→execute→store→ack against a
    shared queue directory (see :mod:`repro.queue`)."""
    from repro.errors import ReproError
    from repro.queue import DEFAULT_LEASE_TTL, JobQueue, QueueWorker

    parser = argparse.ArgumentParser(
        prog="repro-experiments worker",
        description=(
            "Serve a shared job queue: lease pending jobs (atomic rename), "
            "heartbeat on a fixed cadence, execute, push results into the "
            "queue's content-addressed artifact store, ack. Every worker "
            "also reaps stale leases, so SIGKILLed workers' jobs requeue "
            "after --ttl and the fleet self-heals. Start as many workers "
            "as you like, on as many machines as share the directory."
        ),
    )
    parser.add_argument(
        "--queue-dir",
        type=Path,
        required=True,
        help="the shared queue directory (created if missing)",
    )
    parser.add_argument(
        "--ttl",
        type=float,
        default=DEFAULT_LEASE_TTL,
        help=(
            "lease TTL: seconds of heartbeat silence before this (or any) "
            "worker's leases requeue (default %(default)s)"
        ),
    )
    parser.add_argument(
        "--worker-id",
        default=None,
        help="stable worker identity (default: host-pid-random)",
    )
    parser.add_argument(
        "--heartbeat",
        type=float,
        default=None,
        help="heartbeat cadence in seconds (default: ttl / 4)",
    )
    parser.add_argument(
        "--poll",
        type=float,
        default=0.1,
        help="idle polling interval in seconds (default %(default)s)",
    )
    parser.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        help="exit after completing this many jobs",
    )
    parser.add_argument(
        "--drain",
        action="store_true",
        help=(
            "exit once the queue is empty (nothing pending or leased "
            "fleet-wide) instead of serving forever"
        ),
    )
    parser.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        help="exit after this many seconds without obtaining a lease",
    )
    args = parser.parse_args(argv)
    if args.ttl <= 0:
        parser.error(f"--ttl must be > 0 seconds, got {args.ttl}")
    if args.max_jobs is not None and args.max_jobs < 1:
        parser.error(f"--max-jobs must be >= 1, got {args.max_jobs}")
    try:
        queue = JobQueue(args.queue_dir, lease_ttl=args.ttl)
        worker = QueueWorker(
            queue,
            worker_id=args.worker_id,
            heartbeat_interval=args.heartbeat,
            poll_interval=args.poll,
        )
    except ReproError as exc:
        parser.error(str(exc))
    print(f"worker {worker.worker_id} serving {queue.root} (ttl {args.ttl}s)")
    try:
        stats = worker.run(
            max_jobs=args.max_jobs,
            drain=args.drain,
            idle_timeout=args.idle_timeout,
        )
    except KeyboardInterrupt:
        # The worker released the interrupted job and retired on the way
        # out, so everything it held is back in pending/ already.
        print("interrupted; this worker's jobs went back to pending/")
        return 130
    except ReproError as exc:
        # The failing job's traceback is in the queue's failures/; it was
        # released for a retry by another worker (or quarantined after
        # MAX_FAILURES attempts). This worker reports and exits nonzero.
        print(f"job failed: {exc}", file=sys.stderr)
        return 1
    print(
        f"{stats.completed} job(s) completed: {stats.executed} executed, "
        f"{stats.deduplicated} already stored, {stats.requeued} stale "
        f"lease(s) requeued"
    )
    return 0


# ------------------------------------------------------------------ #
# queue — inspect a shared job queue
# ------------------------------------------------------------------ #
def queue_main(argv: list[str] | None = None) -> int:
    """The ``queue`` subcommand: ``queue stats <dir>`` prints a census of
    a queue directory without creating or changing anything in it."""
    from repro.queue import QueueStats

    parser = argparse.ArgumentParser(
        prog="repro-experiments queue",
        description="Inspect a shared job queue directory (read-only).",
    )
    actions = parser.add_subparsers(dest="action", required=True)
    stats_parser = actions.add_parser(
        "stats",
        help="count pending, leased, stored and quarantined jobs and workers",
    )
    stats_parser.add_argument("queue_dir", type=Path)
    args = parser.parse_args(argv)
    try:
        stats = QueueStats.read(args.queue_dir)
    except ExperimentError as exc:
        parser.error(str(exc))
    print(f"queue {args.queue_dir}")
    for name in ("pending", "leased", "stored", "workers", "quarantined"):
        print(f"  {name:<12}{getattr(stats, name)}")
    return 0


# ------------------------------------------------------------------ #
# schedule — execute (or enqueue) an explicit job-spec file
# ------------------------------------------------------------------ #
def schedule_main(argv: list[str] | None = None) -> int:
    """The ``schedule`` subcommand: execute a job-spec file through the
    job queue (local fan-out + stored results + resume), or — with
    ``--enqueue`` — feed it into a shared ``--queue-dir`` for a worker
    fleet without executing anything locally."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments schedule",
        parents=[_scheduler_parent()],
        description=(
            "Execute a JSON list of job specs ({kind, payload} entries) "
            "through the job queue. Finished jobs are stored under "
            "--queue-dir; a rerun with --resume serves them from disk "
            "without touching a worker."
        ),
    )
    parser.add_argument(
        "--jobs",
        type=Path,
        required=True,
        help="JSON file: a list of {kind, payload} job specs",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help=(
            "seconds one job may run before the run fails fast (every "
            "--workers executor is then a local process)"
        ),
    )
    parser.add_argument(
        "--enqueue",
        action="store_true",
        help=(
            "only enqueue the jobs into --queue-dir (for a worker fleet "
            "to drain) instead of executing anything locally"
        ),
    )
    args = parser.parse_args(argv)
    _validate_workers(parser, args)
    if args.enqueue and args.queue_dir is None:
        parser.error("--enqueue needs --queue-dir")
    try:
        specs = load_json(args.jobs)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read --jobs file: {exc}")
    if not isinstance(specs, list):
        parser.error("--jobs file must contain a JSON list of job specs")
    try:
        jobs = [Job.from_spec(spec) for spec in specs]
    except ExperimentError as exc:
        parser.error(f"bad job spec in --jobs file: {exc}")
    if args.enqueue:
        from repro.queue import DEFAULT_LEASE_TTL, JobQueue

        lease_ttl = getattr(args, "lease_ttl", None)
        queue = JobQueue(
            args.queue_dir,
            lease_ttl=DEFAULT_LEASE_TTL if lease_ttl is None else lease_ttl,
        )
        enqueued = queue.enqueue_many(jobs)
        stats = queue.stats()
        print(
            f"enqueued {enqueued} of {len(jobs)} job(s) into {queue.root} "
            f"({len(jobs) - enqueued} already pending/leased/stored)"
        )
        print(
            f"queue: {stats.pending} pending, {stats.leased} leased, "
            f"{stats.stored} stored"
        )
        return 0
    with _scheduler(args, force=True) as scheduler:
        results = scheduler.run(jobs)
    table = Table(
        headers=("#", "kind", "job_hash", "source"),
        title=f"Scheduled jobs — {args.jobs}",
    )
    for index, (job, source) in enumerate(zip(jobs, scheduler.job_sources)):
        table.add_row(index, job.kind, job.job_hash()[:16], source)
    print(table)
    print(
        f"\n{len(jobs)} job(s): {scheduler.jobs_executed} executed, "
        f"{scheduler.cache_hits} from cache"
    )
    if args.output is not None:
        payload = [
            {"job": job.spec(), "job_hash": job.job_hash(), "result": result}
            for job, result in zip(jobs, results)
        ]
        target = save_json(args.output / "schedule.json", payload)
        print(f"\nwrote {target}")
    return 0


SUBCOMMANDS = {
    "run": run_main,
    "list": list_main,
    "describe": describe_main,
    "schedule": schedule_main,
    "worker": worker_main,
    "queue": queue_main,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in SUBCOMMANDS:
        return SUBCOMMANDS[argv[0]](argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Run the experiments of the VT-migration incentive paper: "
            "`run <experiment> --param k=v` executes any registered "
            "experiment; `list` and `describe <experiment>` show the "
            "registry; `schedule` executes a job-spec file; `worker` "
            "serves a shared --queue-dir job queue; `queue stats <dir>` "
            "counts its contents (see each subcommand's --help)."
        ),
    )
    parser.add_argument("command", choices=sorted(SUBCOMMANDS))
    # Only reached without a known subcommand: argparse prints the usage
    # and exits with status 2 (or 0 for --help).
    parser.parse_args(argv)
    return 2


if __name__ == "__main__":
    sys.exit(main())
