"""Experiment jobs: serializable specs, the job-kind registry, payload codecs.

The paper's headline results are embarrassingly parallel collections of
independent work units — one seed of a multi-seed comparison, one market
point of a Fig. 3 sweep, one robustness grid cell, one DRL training. This
module gives every such unit one shape: a :class:`Job`, a *pure-function
spec* naming a registered job kind plus a JSON-able payload. The one
executor of job batches is :class:`repro.queue.QueueScheduler`: it serves
results already in its directory's artifact store, fans the rest over
local worker processes and any attached worker fleet, and persists every
result as it lands, so interrupted runs **resume** instead of recompute.
This module holds what both sides of that wire share: the job-kind
registry and :func:`execute_job`, and the market/config payload codecs.
The ``{"job", "result"}`` result entries are the artifact store's own
format (:mod:`repro.queue.artifacts`).

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

Artifact directory
------------------
DRL jobs park their trained agent in the artifact directory injected under
:data:`ARTIFACT_DIR_KEY`, at ``checkpoints/<job_hash>.npz`` (recorded
relative to it).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import json
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from pathlib import Path

from repro.channel.link import LinkBudget, RsuLink
from repro.channel.pathloss import FreeSpacePathLoss, LogDistancePathLoss
from repro.core.stackelberg import MarketConfig, StackelbergMarket
from repro.entities.vmu import VmuProfile
from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.utils.serialization import to_jsonable

__all__ = [
    "ARTIFACT_DIR_KEY",
    "Job",
    "SOLVER_VERSION",
    "solve_job",
    "register_job_kind",
    "job_function",
    "execute_job",
    "market_to_payload",
    "market_from_payload",
    "config_to_payload",
    "config_from_payload",
]

ARTIFACT_DIR_KEY = "__artifact_dir__"
"""Reserved payload key injected at *execution* time.

It carries the artifact store's root so job functions can park artifacts
(e.g. DRL checkpoints) next to the stored results. It is injected
into the payload dict handed to the job function only — never into the
job's spec — so it does not participate in :meth:`Job.job_hash` and a
cache written under one directory spelling resumes under any other.
"""

# Built-in job kinds resolve lazily by dotted path so worker processes can
# import them without this module importing the (higher-level) modules that
# define them — the registry stays cycle-free and pickles as plain strings.
_BUILTIN_JOB_KINDS: dict[str, str] = {
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
    :class:`repro.queue.QueueScheduler` replays path registrations in the
    local worker processes it starts, so these resolve regardless of the
    multiprocessing start method — or a callable, which is only reachable
    where the registering process's memory is (in-process execution and
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


SOLVER_VERSION = 2
"""Version of the equilibrium solve's result bits, bumped when they change
(2: the candidate argmax alone; unversioned: with a golden cross-check)."""


def solve_job(kind: str, payload: Mapping) -> Job:
    """A job whose result the equilibrium solve feeds. Its payload carries
    :data:`SOLVER_VERSION`, which no job function reads, so a store written
    by an earlier solve misses instead of serving that solve's bits."""
    return Job(kind, {**payload, "solver_version": SOLVER_VERSION})


def execute_job(job: Job, artifact_dir: str | Path | None = None) -> object:
    """Run one job in this process and return its JSON-able result.

    ``artifact_dir`` (the artifact store's root) is injected into the
    payload under :data:`ARTIFACT_DIR_KEY` — execution context, never part
    of the spec or hash.
    """
    payload: Mapping = job.payload
    if artifact_dir is not None:
        payload = {**payload, ARTIFACT_DIR_KEY: str(artifact_dir)}
    return to_jsonable(job_function(job.kind)(payload))


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
