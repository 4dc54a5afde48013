"""Declarative experiment specs: one registry, one entry point, one path.

Every experiment in this package — the paper figures (Fig. 2 convergence,
the Fig. 3 cost/VMU sweeps), the robustness sweeps, the ablations, the
welfare analysis, and the multi-seed comparison — is registered here as an
:class:`ExperimentSpec`:

- a **name** and a **typed parameter schema** (:class:`ParamSpec` entries
  that coerce API values and parse CLI text);
- a ``plan()`` that compiles the validated parameters into
  :class:`~repro.experiments.scheduler.Job`s (decomposing per seed / per
  market point / per grid cell / per chunk);
- an ``assemble()`` that merges the job results back into the experiment's
  result dataclass.

Every run takes that one path: :func:`run_experiment` plans the jobs,
executes them — in-process through
:func:`~repro.experiments.scheduler.execute_job` when no scheduler is
given, else through the :class:`repro.queue.QueueScheduler` — and
assembles the result. Floats survive the JSON job wire exactly, so the
in-process and queued runs are **bitwise-equal**, which
``tests/test_experiments_api.py`` pins.
:func:`schedule` compiles a spec into an :class:`ExperimentPlan` without
executing it — the plan's job specs are the ``[{"kind", "payload"}]`` wire
format the ``schedule`` CLI subcommand consumes.

Result payload round-trips are generated uniformly for every registered
result type from its dataclass type hints: :func:`result_to_payload` /
:func:`result_from_payload` turn any result into a JSON-able dict and back,
bitwise — so ``save_json``/``load_json`` persistence works for every
experiment.

Unknown parameter keys are rejected with a
:class:`~repro.errors.ConfigurationError` naming the key — a typo'd kwarg
can never silently fall back to a default — and so is an empty sweep axis
(any tuple-typed parameter).
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import types
import typing
from collections.abc import Callable, Mapping
from typing import TYPE_CHECKING
from dataclasses import dataclass, field, replace

import numpy as np

from repro.channel.fading import (
    FadingModel,
    LogNormalShadowing,
    NoFading,
    RayleighFading,
    RicianFading,
)
from repro.core.stackelberg import StackelbergMarket
from repro.entities.vmu import paper_fig2_population
from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.scheduler import (
    Job,
    config_from_payload,
    execute_job,
    market_from_payload,
)
from repro.utils.serialization import to_jsonable

if TYPE_CHECKING:
    from repro.queue.worker import QueueScheduler

__all__ = [
    "ParamSpec",
    "ExperimentPlan",
    "ExperimentSpec",
    "register",
    "get_experiment",
    "experiment_names",
    "run_experiment",
    "schedule",
    "result_to_payload",
    "result_from_payload",
    "resolve_config",
    "resolve_market",
    "CONFIG_PARAMS",
    "MARKET_PARAM",
    "parse_int_tuple",
    "parse_float_tuple",
    "parse_str_tuple",
]


# ---------------------------------------------------------------------- #
# parameter types — each a (coerce, parse) pair
# ---------------------------------------------------------------------- #
def parse_int_tuple(text: str) -> tuple[int, ...]:
    """``"0,1,2"`` → ``(0, 1, 2)`` (the one seed-list parser, shared with
    the CLI's ``--seeds`` flag)."""
    return tuple(int(part) for part in text.split(",") if part.strip())


def parse_float_tuple(text: str) -> tuple[float, ...]:
    """``"5,7.5,9"`` → ``(5.0, 7.5, 9.0)``."""
    return tuple(float(part) for part in text.split(",") if part.strip())


def parse_str_tuple(text: str) -> tuple[str, ...]:
    """``"drl,random"`` → ``("drl", "random")``."""
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _optional(function: Callable) -> Callable:
    def convert(value: object) -> object:
        return None if value is None else function(value)

    return convert


def _parse_optional(function: Callable[[str], object]) -> Callable[[str], object]:
    def parse(text: str) -> object:
        return None if text.strip().lower() in ("", "none") else function(text)

    return parse


def _coerce_config(value: object) -> ExperimentConfig | None:
    if value is None or isinstance(value, ExperimentConfig):
        return value
    if isinstance(value, Mapping):
        return config_from_payload(value)
    raise ValueError(
        f"expected an ExperimentConfig or its payload dict, got "
        f"{type(value).__name__}"
    )


def _coerce_market(value: object) -> StackelbergMarket | None:
    if value is None or isinstance(value, StackelbergMarket):
        return value
    if isinstance(value, Mapping):
        return market_from_payload(value)
    raise ValueError(
        f"expected a StackelbergMarket or its payload dict, got "
        f"{type(value).__name__}"
    )


# "nofading", not "none": for optional params the CLI text "none" means
# "unset, use the default" before any model lookup happens.
_FADING_MODELS: dict[str, type] = {
    "nofading": NoFading,
    "rayleigh": RayleighFading,
    "rician": RicianFading,
    "shadowing": LogNormalShadowing,
}


def _coerce_fading(value: object) -> FadingModel | None:
    if value is None or isinstance(value, FadingModel):
        return value
    if isinstance(value, str):
        text = value.strip()
        if text.startswith("{"):
            # Parameterised models arrive as their JSON payload, e.g.
            # '{"model": "rician", "k_factor": 3}'.
            return _decode_fading(json.loads(text))
        cls = _FADING_MODELS.get(text.lower())
        if cls is None:
            raise ValueError(
                f"unknown fading model {value!r}; known models: "
                f"{sorted(_FADING_MODELS)}"
            )
        try:
            return cls()
        except TypeError as exc:
            raise ValueError(
                f"fading model {text!r} needs parameters — pass its JSON "
                f'payload instead, e.g. {{"model": "{text.lower()}", '
                f'...}}: {exc}'
            ) from exc
    if isinstance(value, Mapping):
        return _decode_fading(value)
    raise ValueError(
        f"expected a FadingModel, model name, or payload dict, got "
        f"{type(value).__name__}"
    )


def _decode_fading(payload: Mapping) -> FadingModel:
    cls = _FADING_MODELS.get(str(payload.get("model", "")).lower())
    if cls is None:
        raise ValueError(f"unknown fading model {payload.get('model')!r}")
    kwargs = {str(k): v for k, v in payload.items() if k != "model"}
    return cls(**kwargs)


def _coerce_seed(value: object) -> object:
    # SeedLike: ints pass through coerced; rich seeds (np.random.Generator)
    # are accepted verbatim for API callers but cannot ride the JSON wire.
    if isinstance(value, bool):
        raise ValueError("a seed must be an integer, not a boolean")
    if isinstance(value, int):
        return value
    return value


@dataclass(frozen=True)
class _ParamType:
    """One parameter type: python coercion and CLI parsing."""

    name: str
    coerce: Callable
    parse: Callable[[str], object]


def _tuple_of(function: Callable) -> Callable:
    # Every tuple-typed parameter is a sweep axis (or the seed list): an
    # empty one would plan no jobs and assemble an empty result.
    def convert(value: object) -> tuple:
        if isinstance(value, (str, bytes)) or not hasattr(value, "__iter__"):
            raise ValueError(
                f"expected a sequence, got {type(value).__name__}"
            )
        values = tuple(function(v) for v in value)
        if not values:
            raise ValueError("expected a non-empty sequence")
        return values

    return convert


PARAM_TYPES: dict[str, _ParamType] = {
    kind.name: kind
    for kind in (
        _ParamType("int", int, int),
        _ParamType("float", float, float),
        _ParamType("str", str, str),
        _ParamType("bool", bool, _parse_bool),
        _ParamType("int?", _optional(int), _parse_optional(int)),
        _ParamType("float?", _optional(float), _parse_optional(float)),
        _ParamType("str?", _optional(str), _parse_optional(str)),
        _ParamType("ints", _tuple_of(int), parse_int_tuple),
        _ParamType("floats", _tuple_of(float), parse_float_tuple),
        _ParamType("strs", _tuple_of(str), parse_str_tuple),
        _ParamType(
            "config?",
            _coerce_config,
            _parse_optional(lambda text: _coerce_config(json.loads(text))),
        ),
        _ParamType(
            "market?",
            _coerce_market,
            _parse_optional(lambda text: _coerce_market(json.loads(text))),
        ),
        _ParamType("fading?", _coerce_fading, _parse_optional(_coerce_fading)),
        _ParamType("seed", _coerce_seed, int),
    )
}


@dataclass(frozen=True)
class ParamSpec:
    """One typed experiment parameter: name, type, default, help text."""

    name: str
    type: str
    default: object = None
    help: str = ""

    def __post_init__(self) -> None:
        if self.type not in PARAM_TYPES:
            raise ConfigurationError(
                f"parameter {self.name!r} has unknown type {self.type!r}; "
                f"known types: {sorted(PARAM_TYPES)}"
            )

    def _kind(self) -> _ParamType:
        return PARAM_TYPES[self.type]

    def coerce(self, value: object) -> object:
        """Coerce a Python value (e.g. an API caller's) onto this type."""
        try:
            return self._kind().coerce(value)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"invalid value for parameter {self.name!r}: {exc}"
            ) from exc

    def parse(self, text: str) -> object:
        """Parse a CLI ``--param {self.name}=<text>`` value."""
        try:
            return self._kind().parse(text)
        except (TypeError, ValueError, json.JSONDecodeError) as exc:
            raise ConfigurationError(
                f"cannot parse {text!r} as parameter {self.name!r} "
                f"(type {self.type}): {exc}"
            ) from exc


# ---------------------------------------------------------------------- #
# shared parameter groups
# ---------------------------------------------------------------------- #
CONFIG_PARAMS: tuple[ParamSpec, ...] = (
    ParamSpec("preset", "str", "quick", "ExperimentConfig preset: quick | paper | smoke"),
    ParamSpec("seed", "int?", None, "override the config's RNG seed"),
    ParamSpec("episodes", "int?", None, "override the config's num_episodes"),
    ParamSpec("rounds", "int?", None, "override the config's rounds_per_episode"),
    ParamSpec("num_envs", "int?", None, "override the engine's env-batch width E"),
    ParamSpec("config", "config?", None, "full ExperimentConfig payload (wins over preset)"),
)
"""The training-budget parameters shared by every DRL-training experiment."""

MARKET_PARAM = ParamSpec(
    "market", "market?", None,
    "market payload (default: the paper's 2-VMU Fig. 2 market)",
)

_PRESETS: dict[str, Callable[..., ExperimentConfig]] = {
    "quick": ExperimentConfig.quick,
    "paper": ExperimentConfig.paper,
    "smoke": ExperimentConfig.smoke,
}


def resolve_config(params: Mapping) -> ExperimentConfig:
    """The :class:`ExperimentConfig` a validated parameter dict describes.

    ``config`` (a full payload/instance) wins over ``preset``; ``seed`` /
    ``episodes`` / ``rounds`` / ``num_envs``, when set, override the
    resolved config field-wise.
    """
    config = params.get("config")
    seed = params.get("seed")
    if config is None:
        preset = str(params.get("preset", "quick"))
        factory = _PRESETS.get(preset)
        if factory is None:
            raise ConfigurationError(
                f"unknown preset {preset!r}; known presets: {sorted(_PRESETS)}"
            )
        config = factory(seed=seed if seed is not None else 0)
    elif seed is not None:
        config = config.with_seed(seed)
    if params.get("episodes") is not None:
        config = replace(config, num_episodes=int(params["episodes"]))
    if params.get("rounds") is not None:
        config = replace(config, rounds_per_episode=int(params["rounds"]))
    if params.get("num_envs") is not None:
        config = config.with_num_envs(int(params["num_envs"]))
    return config


def resolve_market(params: Mapping) -> StackelbergMarket:
    """The market a validated parameter dict describes (default: paper's)."""
    market = params.get("market")
    if market is None:
        return StackelbergMarket(paper_fig2_population())
    return market


# ---------------------------------------------------------------------- #
# plans and specs
# ---------------------------------------------------------------------- #
@dataclass
class ExperimentPlan:
    """A spec compiled against concrete parameters: jobs + merge context.

    ``jobs`` is what a :class:`repro.queue.QueueScheduler` executes;
    ``context`` carries whatever in-memory state ``assemble`` needs (the
    built market grid, job→slot maps, ...) and never rides the wire.
    """

    experiment: str
    params: dict
    jobs: list[Job]
    context: dict = field(default_factory=dict)

    def job_specs(self) -> list[dict]:
        """The plan's jobs in the ``[{"kind", "payload"}]`` wire form the
        ``schedule`` CLI subcommand executes."""
        return [job.spec() for job in self.jobs]


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: schema + plan/assemble."""

    name: str
    description: str
    params: tuple[ParamSpec, ...]
    result_type: type
    plan: Callable[[Mapping], ExperimentPlan]
    assemble: Callable[[ExperimentPlan, list], object]
    render: Callable[[object], str] | None = None

    def param(self, name: str) -> ParamSpec:
        """The schema entry for ``name`` (unknown → ConfigurationError)."""
        for spec in self.params:
            if spec.name == name:
                return spec
        raise ConfigurationError(
            f"unknown parameter {name!r} for experiment {self.name!r}; "
            f"known parameters: {[p.name for p in self.params]}"
        )

    def validate(self, params: Mapping | None) -> dict:
        """Merge ``params`` over the schema defaults, coercing each value.

        Raises:
            ConfigurationError: on an unknown key (named in the message) or
                a value that does not coerce onto its declared type. A
                ``None`` value means "use the default".
        """
        params = dict(params or {})
        known = {spec.name for spec in self.params}
        unknown = sorted(set(params) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown parameter{'s' if len(unknown) > 1 else ''} "
                f"{', '.join(repr(k) for k in unknown)} for experiment "
                f"{self.name!r}; known parameters: {sorted(known)}"
            )
        validated = {}
        for spec in self.params:
            value = params.get(spec.name)
            validated[spec.name] = (
                spec.default if value is None else spec.coerce(value)
            )
        return validated

    def result_to_payload(self, result: object) -> dict:
        """``result`` as a JSON-able dict (uniform dataclass codec)."""
        if not isinstance(result, self.result_type):
            raise ExperimentError(
                f"experiment {self.name!r} results are "
                f"{self.result_type.__name__}, got {type(result).__name__}"
            )
        return result_to_payload(result)

    def result_from_payload(self, payload: Mapping) -> object:
        """Rebuild this experiment's result dataclass from its payload."""
        return result_from_payload(self.result_type, payload)

    def render_result(self, result: object) -> str:
        """Human-readable form of ``result`` (tables, for the CLI)."""
        if self.render is not None:
            return self.render(result)
        return str(result.table())


# ---------------------------------------------------------------------- #
# registry
# ---------------------------------------------------------------------- #
_REGISTRY: dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Register ``spec`` (module import time); returns it for assignment."""
    if spec.name in _REGISTRY:
        raise ExperimentError(
            f"experiment {spec.name!r} is already registered"
        )
    _REGISTRY[spec.name] = spec
    return spec


def _ensure_registered() -> None:
    # Registration happens when the experiment modules import; importing
    # the package pulls them all in. Importing any submodule first imports
    # the package, so in practice the registry is already populated — this
    # is a guard for exotic import orders.
    if not _REGISTRY:
        importlib.import_module("repro.experiments")


def get_experiment(name: str) -> ExperimentSpec:
    """The registered spec called ``name``."""
    _ensure_registered()
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown experiment {name!r}; registered experiments: "
            f"{experiment_names()}"
        )
    return spec


def experiment_names() -> list[str]:
    """Sorted names of every registered experiment."""
    _ensure_registered()
    return sorted(_REGISTRY)


def _resolve_spec(experiment: str | ExperimentSpec) -> ExperimentSpec:
    if isinstance(experiment, ExperimentSpec):
        return experiment
    return get_experiment(str(experiment))


# ---------------------------------------------------------------------- #
# entry points
# ---------------------------------------------------------------------- #
def run_experiment(
    experiment: str | ExperimentSpec,
    params: Mapping | None = None,
    *,
    scheduler: QueueScheduler | None = None,
):
    """Run one registered experiment; returns its result dataclass.

    The spec's ``plan()`` compiles the run into jobs and ``assemble()``
    merges their results. Without ``scheduler`` the jobs execute
    in-process, one after another. With a
    :class:`repro.queue.QueueScheduler` they batch-run against its queue
    directory and content-addressed artifact store — fanned over its
    local worker processes and any worker fleet attached to the directory
    — with caching and kill-resume for free. Both ways return a
    bitwise-equal result.

    Raises:
        ConfigurationError: on an unknown experiment, an unknown parameter
            key (named in the message), an ill-typed parameter value, or
            an empty sweep axis.
    """
    spec = _resolve_spec(experiment)
    plan = spec.plan(spec.validate(params))
    if scheduler is None:
        results = [execute_job(job) for job in plan.jobs]
    else:
        results = scheduler.run(plan.jobs)
    return spec.assemble(plan, results)


def schedule(
    experiment: str | ExperimentSpec, params: Mapping | None = None
) -> ExperimentPlan:
    """Compile an experiment into its :class:`ExperimentPlan` without
    executing it.

    The plan's :meth:`ExperimentPlan.job_specs` are the JSON wire format
    the ``schedule`` CLI subcommand (and a remote scheduler backend)
    executes; :meth:`ExperimentSpec.validate` has already rejected unknown
    or ill-typed parameters by the time the plan exists.
    """
    spec = _resolve_spec(experiment)
    return spec.plan(spec.validate(params))


# ---------------------------------------------------------------------- #
# uniform result payload codec (type-hint driven)
# ---------------------------------------------------------------------- #
def result_to_payload(result: object) -> dict:
    """Any registered result dataclass as a JSON-able dict.

    The encoding is uniform — field name → encoded value, recursing into
    nested dataclasses, mappings, and sequences — and floats survive the
    JSON round trip exactly, so :func:`result_from_payload` rebuilds an
    ``==``-equal result (``save_json``/``load_json`` persistence for every
    experiment).
    """
    if not dataclasses.is_dataclass(result) or isinstance(result, type):
        raise ExperimentError(
            f"expected a result dataclass instance, got "
            f"{type(result).__name__}"
        )
    return {
        f.name: _encode_value(getattr(result, f.name))
        for f in dataclasses.fields(result)
    }


def _encode_value(value: object) -> object:
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _encode_value(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, Mapping):
        return {str(key): _encode_value(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode_value(v) for v in value]
    return to_jsonable(value)


def result_from_payload(result_type: type, payload: Mapping):
    """Rebuild a result dataclass from :func:`result_to_payload`'s dict.

    Decoding is driven by the dataclass's type hints (``list[float]``,
    ``dict[float, dict[str, PolicyEvaluation]]``, nested dataclasses,
    fixed and variadic tuples), so every registered result type round-trips
    without bespoke ``from_payload`` code.

    Raises:
        ExperimentError: if the payload is not a mapping, has missing or
            unexpected keys, or a value does not fit its declared type.
    """
    return _decode_dataclass(result_type, payload)


def _decode_dataclass(cls: type, payload: object):
    if not isinstance(payload, Mapping):
        raise ExperimentError(
            f"{cls.__name__} payload must be a mapping, got "
            f"{type(payload).__name__}"
        )
    hints = typing.get_type_hints(cls)
    expected = {f.name for f in dataclasses.fields(cls)}
    missing = sorted(expected - set(payload))
    unexpected = sorted(set(payload) - expected)
    if missing or unexpected:
        raise ExperimentError(
            f"{cls.__name__} payload fields mismatch: missing={missing}, "
            f"unexpected={unexpected}"
        )
    kwargs = {
        name: _decode_value(hints[name], payload[name]) for name in expected
    }
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ExperimentError(
            f"cannot rebuild {cls.__name__} from payload: {exc}"
        ) from exc


def _decode_key(hint: type, key: str):
    if hint is int:
        return int(key)
    if hint is float:
        return float(key)
    return str(key)


def _decode_value(hint, value):
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is typing.Union or origin is types.UnionType:
        non_none = [a for a in args if a is not type(None)]
        if value is None and len(non_none) < len(args):
            return None
        if len(non_none) == 1:
            return _decode_value(non_none[0], value)
        return value
    if dataclasses.is_dataclass(hint) and isinstance(hint, type):
        return _decode_dataclass(hint, value)
    if hint is np.ndarray:
        # Float arrays only: `to_jsonable` encoded the array as (nested)
        # lists of floats, which survive JSON exactly, so the rebuilt
        # array is bitwise-equal element for element.
        return np.asarray(value, dtype=float)
    if origin in (list, typing.List):
        item = args[0] if args else object
        return [_decode_value(item, v) for v in _expect_sequence(hint, value)]
    if origin in (tuple, typing.Tuple):
        values = _expect_sequence(hint, value)
        if not args or (len(args) == 2 and args[1] is Ellipsis):
            item = args[0] if args else object
            return tuple(_decode_value(item, v) for v in values)
        if len(values) != len(args):
            raise ExperimentError(
                f"expected a {len(args)}-tuple, got {len(values)} values"
            )
        return tuple(_decode_value(a, v) for a, v in zip(args, values))
    if origin in (dict, typing.Dict):
        key_hint, value_hint = args if args else (str, object)
        if not isinstance(value, Mapping):
            raise ExperimentError(
                f"expected a mapping, got {type(value).__name__}"
            )
        return {
            _decode_key(key_hint, str(k)): _decode_value(value_hint, v)
            for k, v in value.items()
        }
    if hint is float:
        return float(value)
    if hint is bool:
        return bool(value)
    if hint is int:
        return int(value)
    if hint is str:
        return str(value)
    return value


def _expect_sequence(hint, value):
    if isinstance(value, (str, bytes)) or not isinstance(
        value, (list, tuple)
    ):
        raise ExperimentError(
            f"expected a sequence for {hint!r}, got {type(value).__name__}"
        )
    return value
