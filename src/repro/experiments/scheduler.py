"""Async experiment scheduler: serializable jobs, pooled workers, disk cache.

The paper's headline results are embarrassingly parallel collections of
independent work units — one seed of a multi-seed comparison, one market
point of a Fig. 3 sweep, one robustness grid cell, one DRL training. This
module gives every such unit one shape: a :class:`Job`, a *pure-function
spec* naming a registered job kind plus a JSON-able payload, executed by a
:class:`JobScheduler` that fans jobs over a process pool and caches every
result on disk keyed by a stable job hash. Interrupted runs **resume**
instead of recompute, and the JSON wire format (the same
``to_payload``/``from_payload`` contract the multiseed shards ship) makes
the queue serializable for cross-machine fan-out.

Job-spec contract
-----------------
A job spec is ``{"kind": <registered name>, "payload": <JSON-able dict>}``.
The payload must be JSON-able (:func:`repro.utils.serialization.to_jsonable`
is applied, so numpy scalars and tuples are fine) and, together with the
kind, must *fully determine* the result — job functions are pure: no
hidden state, no ambient configuration, randomness only from seeds inside
the payload. That purity is what makes the cache sound.

Hash stability
--------------
``Job.job_hash()`` is the SHA-256 of the canonical JSON encoding of the
spec (keys sorted, compact separators). JSON round-trips floats exactly
(``repr``-based), so the hash — and therefore the cache key — is stable
across processes, machines, and interpreter restarts. Anything that should
*not* share a cache entry (a checkpoint target path, a different seed) must
be in the payload; anything that should (wall-clock, worker count) must
not be.

Cache layout and resume semantics
---------------------------------
With ``cache_dir`` set, each finished job writes
``<cache_dir>/<job_hash>.json`` containing ``{"job": spec, "result":
payload}`` (written atomically: temp file + rename). DRL jobs additionally
hand their trained agent home as ``<cache_dir>/checkpoints/<hash>.npz``
via :func:`repro.drl.checkpoints.save_agent`. On a later run with
``resume=True`` (default), a job whose cache file exists — and whose
recorded spec matches, guarding against hash collisions and stale files —
is served from disk without touching a worker; a corrupt or truncated file
is treated as a miss and recomputed. ``resume=False`` ignores and
overwrites existing entries.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import json
import os
import uuid
from collections.abc import Callable, Mapping, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.channel.link import LinkBudget, RsuLink
from repro.channel.pathloss import FreeSpacePathLoss, LogDistancePathLoss
from repro.core.stackelberg import MarketConfig, StackelbergMarket
from repro.entities.vmu import VmuProfile
from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.utils.serialization import load_json, to_jsonable

__all__ = [
    "ARTIFACT_DIR_KEY",
    "MISSING_RESULT",
    "Job",
    "JobScheduler",
    "SchedulerLike",
    "register_job_kind",
    "job_function",
    "execute_job",
    "execute_spec",
    "write_result_entry",
    "read_result_entry",
    "market_to_payload",
    "market_from_payload",
    "config_to_payload",
    "config_from_payload",
]

ARTIFACT_DIR_KEY = "__artifact_dir__"
"""Reserved payload key the scheduler injects at *execution* time.

It carries the scheduler's cache directory so job functions can park
artifacts (e.g. DRL checkpoints) next to the result cache. It is injected
into the payload dict handed to the job function only — never into the
job's spec — so it does not participate in :meth:`Job.job_hash` and a
cache written under one directory spelling resumes under any other.
"""

# Built-in job kinds resolve lazily by dotted path so worker processes can
# import them without this module importing the (higher-level) modules that
# define them — the registry stays cycle-free and pickles as plain strings.
_BUILTIN_JOB_KINDS: dict[str, str] = {
    "multiseed_shard": "repro.experiments.multiseed:run_shard_job",
    "market_scheme": "repro.experiments.runner:run_market_scheme_job",
    "equilibrium_cell": "repro.experiments.scheduler:run_equilibrium_cell_job",
    "city_chunk": "repro.experiments.cityscale:run_city_chunk_job",
    "training_run": "repro.experiments.runner:run_training_job",
    "welfare_report": "repro.experiments.welfare:run_welfare_report_job",
    "pricing_service": "repro.experiments.pricing_service:run_pricing_service_job",
    "bayesian_pricing": "repro.experiments.bayesian:run_bayesian_pricing_job",
    "oligopoly_cell": "repro.experiments.price_of_anarchy:run_oligopoly_cell_job",
}

_REGISTERED_JOB_KINDS: dict[str, str | Callable[[Mapping], object]] = {}


def register_job_kind(
    name: str, function: str | Callable[[Mapping], object]
) -> None:
    """Register a new job kind.

    ``function`` is either a dotted path ``"package.module:callable"`` —
    the scheduler ships path registrations to its workers alongside each
    job, so these resolve regardless of the multiprocessing start
    method — or a callable, which is only reachable where the
    registering process's memory is (in-process execution and
    ``fork``-start workers).
    """
    if name in _BUILTIN_JOB_KINDS:
        raise ExperimentError(f"job kind {name!r} is built in")
    _REGISTERED_JOB_KINDS[name] = function


def _registered_paths() -> dict[str, str]:
    """The dotted-path registrations, shippable to worker processes."""
    return {
        name: function
        for name, function in _REGISTERED_JOB_KINDS.items()
        if isinstance(function, str)
    }


def _resolve_path(path: str) -> Callable[[Mapping], object]:
    module_name, _, attribute = path.partition(":")
    if not module_name or not attribute:
        raise ExperimentError(
            f"job-kind path must look like 'package.module:callable', "
            f"got {path!r}"
        )
    return getattr(importlib.import_module(module_name), attribute)


def job_function(kind: str) -> Callable[[Mapping], object]:
    """The pure function executing one job of ``kind`` (payload → result)."""
    registered = _REGISTERED_JOB_KINDS.get(kind)
    if registered is not None:
        return _resolve_path(registered) if isinstance(registered, str) else registered
    path = _BUILTIN_JOB_KINDS.get(kind)
    if path is None:
        raise ExperimentError(
            f"unknown job kind {kind!r}; known kinds: "
            f"{sorted((*_BUILTIN_JOB_KINDS, *_REGISTERED_JOB_KINDS))}"
        )
    return _resolve_path(path)


@dataclass(frozen=True)
class Job:
    """One schedulable experiment unit: a registered kind + JSON-able payload.

    Jobs are *pure-function specs*: ``job_function(kind)(payload)`` must be
    fully determined by the spec, so equal specs may share a cache entry.

    A job is immutable: it is frozen, and no caller mutates a payload after
    building the job. The wire payload and the hash are therefore encoded
    once, on first use, and reused by every later :meth:`spec` /
    :meth:`job_hash` call; the payload inside a returned spec is that
    shared encoding and must be treated as read-only too.
    """

    kind: str
    payload: Mapping

    @functools.cached_property
    def _wire_payload(self) -> object:
        return to_jsonable(self.payload)

    @functools.cached_property
    def _hash(self) -> str:
        canonical = json.dumps(
            self.spec(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def spec(self) -> dict:
        """The JSON-able ``{"kind", "payload"}`` wire form of this job."""
        return {"kind": self.kind, "payload": self._wire_payload}

    def job_hash(self) -> str:
        """Stable SHA-256 of the canonical (sorted, compact) spec JSON."""
        return self._hash

    @classmethod
    def from_spec(cls, spec: object) -> "Job":
        """Rebuild a job from its :meth:`spec` dict (e.g. a jobs-file entry).

        The spec must be exactly ``{"kind", "payload"}``: unknown keys are
        rejected rather than dropped, because a dropped key would change
        the job hash — the same bytes that enqueued would silently execute
        and cache under a different identity.
        """
        if not isinstance(spec, Mapping):
            raise ExperimentError(
                f"job spec must be a mapping, got {type(spec).__name__}"
            )
        unknown = sorted(set(map(str, spec)) - {"kind", "payload"})
        if unknown:
            raise ExperimentError(
                f"job spec has unknown key{'s' if len(unknown) > 1 else ''} "
                f"{unknown}; a spec is exactly {{'kind', 'payload'}}"
            )
        try:
            kind = spec["kind"]
            payload = spec["payload"]
        except KeyError as exc:
            raise ExperimentError(
                f"job spec is missing key {exc.args[0]!r}"
            ) from exc
        if not isinstance(payload, Mapping):
            raise ExperimentError("job spec 'payload' must be a mapping")
        return cls(kind=str(kind), payload=dict(payload))


def execute_job(job: Job, artifact_dir: str | Path | None = None) -> object:
    """Run one job in this process and return its JSON-able result.

    ``artifact_dir`` (the scheduler's cache dir) is injected into the
    payload under :data:`ARTIFACT_DIR_KEY` — execution context, never part
    of the spec or hash.
    """
    payload: Mapping = job.payload
    if artifact_dir is not None:
        payload = {**payload, ARTIFACT_DIR_KEY: str(artifact_dir)}
    return to_jsonable(job_function(job.kind)(payload))


def execute_spec(
    spec: Mapping,
    artifact_dir: str | None = None,
    registered_paths: Mapping | None = None,
) -> object:
    """Worker entry point: module-level so a process pool can pickle it.

    ``registered_paths`` replays the parent's dotted-path
    :func:`register_job_kind` calls, so those kinds resolve in workers
    under any multiprocessing start method.
    """
    if registered_paths:
        for name, path in registered_paths.items():
            _REGISTERED_JOB_KINDS.setdefault(str(name), str(path))
    return execute_job(Job.from_spec(spec), artifact_dir)


@runtime_checkable
class SchedulerLike(Protocol):
    """The contract ``run_experiment(..., scheduler=...)`` needs.

    :class:`JobScheduler` (process pool + cache) and
    :class:`repro.queue.QueueScheduler` (shared queue + artifact store)
    both satisfy it: execute a job batch returning result payloads in job
    order, expose ``workers`` (sizes shard-style plan fan-out) and the
    post-run ``cache_hits`` / ``jobs_executed`` accounting the CLI prints.
    """

    workers: int
    cache_hits: int
    jobs_executed: int

    def run(self, jobs: Sequence[Job]) -> list: ...


# ---------------------------------------------------------------------- #
# result-entry codec — the ``{"job", "result"}`` files shared by the
# scheduler cache and the queue subsystem's artifact store
# ---------------------------------------------------------------------- #
MISSING_RESULT = object()
"""Sentinel :func:`read_result_entry` returns for absent/corrupt entries."""


def write_result_entry(path: str | Path, job: Job, result: object) -> Path:
    """Atomically persist ``{"job": spec, "result": payload}`` at ``path``.

    Written through a *per-writer-unique* temporary name (pid + random
    suffix) so concurrent writers sharing a cache/store directory — two
    schedulers, a scheduler and a queue worker, two workers racing on the
    same at-least-once job — never clobber each other's half-written temp
    file, and ``fsync``-ed before the ``os.replace`` so a visible entry is
    always complete even across a crash or SIGKILL mid-write. Embedding
    the full job spec is the provenance contract: every stored result
    reloads and re-runs from its own metadata.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    entry = {"job": job.spec(), "result": to_jsonable(result)}
    temporary = target.with_name(
        f"{target.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
    )
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, indent=2) + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, target)
    finally:
        temporary.unlink(missing_ok=True)
    return target


def read_result_entry(path: str | Path, job: Job | None = None) -> object:
    """Load the result payload a :func:`write_result_entry` file holds.

    Returns :data:`MISSING_RESULT` for an absent, truncated, or otherwise
    unreadable entry (a killed writer's leftovers are a cache miss, not an
    error). With ``job`` given, the recorded spec must match it exactly;
    a mismatch raises :class:`ExperimentError` distinguishing the two ways
    a wrong spec can occupy a hash-named slot — a *foreign file* (the
    recorded spec does not even hash to this job's key: something else was
    dropped or copied into the directory) versus a genuine *hash
    collision* (same SHA-256, different spec) — and naming both the found
    and the expected job kinds.
    """
    source = Path(path)
    try:
        entry = load_json(source)
    except (json.JSONDecodeError, OSError):
        return MISSING_RESULT
    if not isinstance(entry, Mapping) or "result" not in entry:
        return MISSING_RESULT
    if job is not None and entry.get("job") != job.spec():
        recorded = entry.get("job")
        found_kind = (
            recorded.get("kind") if isinstance(recorded, Mapping) else None
        )
        try:
            collision = Job.from_spec(recorded).job_hash() == job.job_hash()
        except ExperimentError:
            collision = False
        reason = (
            "the recorded spec hashes to the same key — a SHA-256 "
            "collision between distinct specs"
            if collision
            else "the recorded spec does not hash to this entry's key — a "
            "foreign file is occupying the slot"
        )
        raise ExperimentError(
            f"cache entry {source} was written by a different job spec "
            f"(found kind {found_kind!r}, expected kind {job.kind!r}; "
            f"{reason}); clear the cache directory or use a fresh one"
        )
    return entry["result"]


class JobScheduler:
    """Executes :class:`Job` batches with pooling, caching, and resume.

    Attributes (after :meth:`run`):
        cache_hits: jobs served from the on-disk cache in the last run.
        jobs_executed: jobs actually executed in the last run (each unique
            spec runs at most once; duplicates share the result).
        job_sources: per-job provenance of the last run, aligned with the
            submitted batch: ``"cache"`` or ``"executed"``.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        cache_dir: str | Path | None = None,
        resume: bool = True,
        job_timeout: float | None = None,
    ) -> None:
        if workers < 1:
            raise ExperimentError(f"workers must be >= 1, got {workers}")
        if job_timeout is not None and job_timeout <= 0:
            raise ExperimentError(
                f"job_timeout must be > 0 seconds, got {job_timeout}"
            )
        self.workers = workers
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.resume = resume
        self.job_timeout = job_timeout
        self.cache_hits = 0
        self.jobs_executed = 0
        self.job_sources: list[str] = []

    # ------------------------------------------------------------------ #
    # cache
    # ------------------------------------------------------------------ #
    def cache_path(self, job: Job) -> Path | None:
        """Where ``job``'s result lives on disk (None without a cache dir)."""
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{job.job_hash()}.json"

    def checkpoint_path(self, job: Job) -> Path | None:
        """Where ``job`` should park a model artifact (None without cache)."""
        if self.cache_dir is None:
            return None
        return self.cache_dir / "checkpoints" / f"{job.job_hash()}.npz"

    _MISS = MISSING_RESULT

    def _load_cached(self, job: Job) -> object:
        path = self.cache_path(job)
        if path is None or not self.resume or not path.exists():
            return self._MISS
        # A truncated file from a killed run is a miss, not an error —
        # the job simply recomputes and overwrites it. A spec mismatch is
        # a hard error (read_result_entry distinguishes foreign files from
        # hash collisions in its message).
        return read_result_entry(path, job)

    def _store(self, job: Job, result: object) -> None:
        path = self.cache_path(job)
        if path is None:
            return
        # Unique-temp-name + fsync atomic write: schedulers and queue
        # workers sharing one cache directory never trample each other's
        # in-flight writes, and kill-resume never sees a torn entry.
        write_result_entry(path, job, result)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run(self, jobs: Sequence[Job]) -> list:
        """Execute ``jobs``; returns their result payloads in job order.

        Cached jobs are served from disk without touching a worker; the
        rest run through a :class:`ProcessPoolExecutor` when ``workers > 1``
        (in-process otherwise), each result persisted as soon as it lands
        so a killed run resumes from everything that finished.
        """
        jobs = list(jobs)
        self.cache_hits = 0
        self.jobs_executed = 0
        self.job_sources = ["cache"] * len(jobs)
        results: list = [None] * len(jobs)
        pending: dict[str, list[int]] = {}  # hash → indices sharing the spec
        pending_jobs: dict[str, Job] = {}
        for index, job in enumerate(jobs):
            key = job.job_hash()
            if key in pending:
                pending[key].append(index)
                self.job_sources[index] = "executed"
                continue
            cached = self._load_cached(job)
            if cached is not self._MISS:
                results[index] = cached
                self.cache_hits += 1
            else:
                pending[key] = [index]
                pending_jobs[key] = job
                self.job_sources[index] = "executed"
        if pending:
            self._execute_pending(pending_jobs, pending, results)
            self.jobs_executed = len(pending)
        return results

    def _execute_pending(
        self,
        pending_jobs: dict[str, Job],
        pending: dict[str, list[int]],
        results: list,
    ) -> None:
        def finish(key: str, result: object) -> None:
            self._store(pending_jobs[key], result)
            for index in pending[key]:
                results[index] = result

        artifact_dir = (
            str(self.cache_dir) if self.cache_dir is not None else None
        )
        # job_timeout forces the pool path even for a single worker/job —
        # the in-process shortcut has no way to interrupt a hung job, and
        # a hang guard that silently does not guard is worse than none.
        if self.job_timeout is None and (
            self.workers == 1 or len(pending_jobs) == 1
        ):
            for key, job in pending_jobs.items():
                finish(key, execute_job(job, artifact_dir))
            return
        max_workers = min(self.workers, len(pending_jobs))
        registered_paths = _registered_paths()
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = {
                pool.submit(
                    execute_spec, job.spec(), artifact_dir, registered_paths
                ): key
                for key, job in pending_jobs.items()
            }
            remaining = set(futures)
            try:
                while remaining:
                    done, remaining = wait(
                        remaining,
                        timeout=self.job_timeout,
                        return_when=FIRST_COMPLETED,
                    )
                    if not done:
                        # A hung worker pool must fail fast, not stall the
                        # run; skip the executor's join so the error
                        # surfaces immediately (workers are orphaned).
                        pool.shutdown(wait=False, cancel_futures=True)
                        raise ExperimentError(
                            f"no job finished within job_timeout="
                            f"{self.job_timeout}s; "
                            f"{len(remaining)} job(s) still outstanding"
                        )
                    for future in done:
                        finish(futures[future], future.result())
            except Exception:
                pool.shutdown(wait=False, cancel_futures=True)
                raise


# ---------------------------------------------------------------------- #
# payload codecs — the JSON wire forms of the objects jobs carry
# ---------------------------------------------------------------------- #
def market_to_payload(market: StackelbergMarket) -> dict:
    """A :class:`StackelbergMarket` as a JSON-able dict.

    Floats survive JSON exactly (``repr`` round-trip), so a market rebuilt
    by :func:`market_from_payload` — possibly in a worker on another
    machine — computes bitwise-identical outcomes.
    """
    budget = market.link.budget
    path_loss = budget.path_loss
    if isinstance(path_loss, LogDistancePathLoss):
        path_loss_payload = {
            "model": "log_distance",
            "reference_gain": path_loss.reference_gain,
            "exponent": path_loss.exponent,
        }
    elif isinstance(path_loss, FreeSpacePathLoss):
        path_loss_payload = {
            "model": "free_space",
            "frequency_hz": path_loss.frequency_hz,
        }
    else:
        raise ExperimentError(
            f"cannot serialise path-loss model "
            f"{type(path_loss).__name__} into a job payload"
        )
    return {
        "vmus": [
            {
                "vmu_id": vmu.vmu_id,
                "data_size_mb": vmu.data_size_mb,
                "immersion_coef": vmu.immersion_coef,
            }
            for vmu in market.vmus
        ],
        "config": dataclasses.asdict(market.config),
        "link": {
            "transmit_power_w": budget.transmit_power_w,
            "noise_power_w": budget.noise_power_w,
            "distance_m": budget.distance_m,
            "fading_gain": budget.fading_gain,
            "path_loss": path_loss_payload,
        },
    }


def market_from_payload(payload: Mapping) -> StackelbergMarket:
    """Rebuild the market :func:`market_to_payload` serialised."""
    if not isinstance(payload, Mapping):
        raise ExperimentError(
            f"market payload must be a mapping, got {type(payload).__name__}"
        )
    try:
        vmus_payload = payload["vmus"]
        config_payload = payload["config"]
        link_payload = payload["link"]
    except KeyError as exc:
        raise ExperimentError(
            f"market payload is missing key {exc.args[0]!r}"
        ) from exc
    vmus = [
        VmuProfile(
            vmu_id=str(entry["vmu_id"]),
            data_size_mb=float(entry["data_size_mb"]),
            immersion_coef=float(entry["immersion_coef"]),
        )
        for entry in vmus_payload
    ]
    config = MarketConfig(
        unit_cost=float(config_payload["unit_cost"]),
        max_price=float(config_payload["max_price"]),
        max_bandwidth=float(config_payload["max_bandwidth"]),
        bandwidth_report_scale=float(config_payload["bandwidth_report_scale"]),
        enforce_capacity=bool(config_payload["enforce_capacity"]),
    )
    path_loss_payload = link_payload["path_loss"]
    model = path_loss_payload.get("model")
    if model == "log_distance":
        path_loss = LogDistancePathLoss(
            reference_gain=float(path_loss_payload["reference_gain"]),
            exponent=float(path_loss_payload["exponent"]),
        )
    elif model == "free_space":
        path_loss = FreeSpacePathLoss(
            frequency_hz=float(path_loss_payload["frequency_hz"])
        )
    else:
        raise ExperimentError(f"unknown path-loss model {model!r}")
    link = RsuLink(
        LinkBudget(
            transmit_power_w=float(link_payload["transmit_power_w"]),
            noise_power_w=float(link_payload["noise_power_w"]),
            path_loss=path_loss,
            distance_m=float(link_payload["distance_m"]),
            fading_gain=float(link_payload["fading_gain"]),
        )
    )
    return StackelbergMarket(vmus, config=config, link=link)


def config_to_payload(config: ExperimentConfig) -> dict:
    """An :class:`ExperimentConfig` as a JSON-able dict (flat dataclass)."""
    return dataclasses.asdict(config)


def config_from_payload(payload: Mapping) -> ExperimentConfig:
    """Rebuild the config :func:`config_to_payload` serialised."""
    if not isinstance(payload, Mapping):
        raise ExperimentError(
            f"config payload must be a mapping, got {type(payload).__name__}"
        )
    known = {field.name for field in dataclasses.fields(ExperimentConfig)}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ExperimentError(f"config payload has unknown keys {unknown}")
    return ExperimentConfig(**{str(key): value for key, value in payload.items()})


# ---------------------------------------------------------------------- #
# built-in job kinds defined at this layer
# ---------------------------------------------------------------------- #
def run_equilibrium_cell_job(payload: Mapping) -> dict:
    """Job kind ``equilibrium_cell``: one market's Stackelberg equilibrium.

    The robustness sweeps' grid unit. ``StackelbergMarket.equilibrium``
    delegates to the stacked solver with ``M = 1``, so a cell solved in a
    worker is bitwise-equal to the same market solved inside a stacked
    sweep.
    """
    market = market_from_payload(payload["market"])
    equilibrium = market.equilibrium()
    return {
        "price": float(equilibrium.price),
        "msp_utility": float(equilibrium.msp_utility),
        "capacity_binding": bool(equilibrium.capacity_binding),
    }
