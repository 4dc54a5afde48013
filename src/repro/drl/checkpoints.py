"""Agent checkpointing: persist a trained pricing policy to disk.

Saves the actor-critic parameters plus the metadata needed to rebuild the
agent (architecture, action bounds, history length) into a single ``.npz``
file, so a policy trained once can price markets in later processes —
the deployment path a real MSP would use.
"""

from __future__ import annotations

import json
import os
import uuid
import zipfile
from pathlib import Path

import numpy as np

from repro.drl.policy import ActionScaler, ActorCritic
from repro.drl.ppo import PPOAgent, PPOConfig
from repro.errors import ConfigurationError, NeuralNetworkError

__all__ = ["save_agent", "load_agent"]

_FORMAT_VERSION = 1
_META_KEY = "__checkpoint_meta__"


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    return _is_int(value) or isinstance(value, float)


# Every metadata field a checkpoint must carry, with its JSON type check.
_META_FIELDS = {
    "obs_dim": _is_int,
    "action_dim": _is_int,
    "hidden_sizes": lambda v: isinstance(v, list) and all(map(_is_int, v)),
    "action_low": _is_number,
    "action_high": _is_number,
    "history_length": lambda v: v is None or _is_int(v),
    "learning_rate": _is_number,
    "clip_epsilon": _is_number,
}

# The rest of PPOConfig, type-checked when present: version-1 checkpoints
# written before these fields joined the metadata lack them and load with
# PPOConfig's defaults.
_OPTIONAL_META_FIELDS = {
    "value_coef": _is_number,
    "entropy_coef": _is_number,
    "max_grad_norm": _is_number,
    "normalize_advantages": lambda v: isinstance(v, bool),
}


def save_agent(
    path: str | Path,
    agent: PPOAgent,
    scaler: ActionScaler,
    *,
    history_length: int | None = None,
) -> Path:
    """Write the agent's parameters, architecture and whole
    :class:`PPOConfig` to ``path`` (.npz). The optimiser's Adam moments and
    step count are not saved: a loaded agent starts a fresh optimiser.

    The archive is written through a per-writer-unique temporary file,
    ``fsync``-ed, and renamed into place, so a checkpoint parked as a
    cache/queue artifact is all-or-nothing: a worker SIGKILLed mid-save
    leaves no truncated ``.npz`` for a resumed run to trip over, and two
    at-least-once workers saving the same job's checkpoint cannot
    interleave writes.
    """
    network = agent.network
    meta = {
        "format_version": _FORMAT_VERSION,
        "obs_dim": network.obs_dim,
        "action_dim": network.action_dim,
        "hidden_sizes": list(network.hidden_sizes),
        "action_low": scaler.low,
        "action_high": scaler.high,
        "history_length": history_length,
        "learning_rate": agent.config.learning_rate,
        "clip_epsilon": agent.config.clip_epsilon,
        "value_coef": agent.config.value_coef,
        "entropy_coef": agent.config.entropy_coef,
        "max_grad_norm": agent.config.max_grad_norm,
        "normalize_advantages": agent.config.normalize_advantages,
    }
    arrays = {
        name.replace(".", "__"): tensor
        for name, tensor in network.state_dict().items()
    }
    arrays[_META_KEY] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    target = Path(path)
    # np.savez appends .npz to bare paths; normalise up front so the
    # atomic rename lands on the final name.
    if target.suffix != ".npz":
        target = target.with_suffix(target.suffix + ".npz")
    target.parent.mkdir(parents=True, exist_ok=True)
    temporary = target.with_name(
        f"{target.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
    )
    try:
        with open(temporary, "wb") as handle:
            np.savez(handle, **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, target)
    finally:
        temporary.unlink(missing_ok=True)
    return target


def load_agent(path: str | Path) -> tuple[PPOAgent, ActionScaler, dict]:
    """Rebuild ``(agent, scaler, metadata)`` from a checkpoint file.

    The npz archive is opened under a context manager so the file handle
    is closed before returning — a leaked handle keeps the checkpoint
    undeletable on platforms with mandatory file locking, breaking cache
    cleanup. A file that is not a readable archive (truncated, garbage,
    pickled objects), metadata that is not a JSON object with every
    required field of the right type and a usable value, a parameter set
    that does not match the rebuilt network exactly, or non-finite weights
    raise :class:`ConfigurationError` naming the path.

    The agent's :class:`PPOConfig` is rebuilt from every field the
    metadata holds. A version-1 checkpoint written before ``value_coef``,
    ``entropy_coef``, ``max_grad_norm`` and ``normalize_advantages`` joined
    the metadata lacks them and loads with ``PPOConfig``'s defaults; when
    present they are type-checked like the required fields.
    """
    try:
        meta, state = _read_archive(Path(path))
    except (zipfile.BadZipFile, EOFError, ValueError) as exc:
        raise ConfigurationError(
            f"{path} is not a readable agent checkpoint: {exc}"
        ) from exc
    if meta is None:
        raise ConfigurationError(f"{path} is not a repro agent checkpoint")
    _check_meta(path, meta)
    try:
        network = ActorCritic(
            obs_dim=meta["obs_dim"],
            hidden_sizes=tuple(meta["hidden_sizes"]),
            action_dim=meta["action_dim"],
            seed=0,
        )
        config = PPOConfig(
            learning_rate=float(meta["learning_rate"]),
            clip_epsilon=float(meta["clip_epsilon"]),
            **{
                key: meta[key] if isinstance(meta[key], bool) else float(meta[key])
                for key in _OPTIONAL_META_FIELDS.keys() & meta.keys()
            },
        )
        scaler = ActionScaler(
            low=float(meta["action_low"]), high=float(meta["action_high"])
        )
    except (ConfigurationError, NeuralNetworkError) as exc:
        raise ConfigurationError(
            f"{path}: checkpoint metadata is unusable: {exc}"
        ) from exc
    expected = set(network.state_dict())
    stored = set(state)
    if expected != stored:
        missing = sorted(expected - stored)
        unexpected = sorted(stored - expected)
        raise ConfigurationError(
            f"checkpoint {path} does not match the rebuilt "
            f"{meta['hidden_sizes']} network: missing parameters "
            f"{missing}, unexpected parameters {unexpected}"
        )
    try:
        network.load_state_dict(state)
    except NeuralNetworkError as exc:
        raise ConfigurationError(
            f"checkpoint {path} parameters are unusable for the rebuilt "
            f"architecture: {exc}"
        ) from exc
    return PPOAgent(network, config), scaler, meta


def _check_meta(path: str | Path, meta: object) -> None:
    """Raise :class:`ConfigurationError` naming ``path`` unless ``meta`` is
    a JSON object of the current format holding every field of
    :data:`_META_FIELDS`, and those of :data:`_OPTIONAL_META_FIELDS` it
    has, with their JSON types."""
    if not isinstance(meta, dict):
        raise ConfigurationError(
            f"{path}: checkpoint metadata must be a JSON object, "
            f"got {type(meta).__name__}"
        )
    if meta.get("format_version") != _FORMAT_VERSION:
        raise ConfigurationError(
            f"{path}: unsupported checkpoint version "
            f"{meta.get('format_version')!r}"
        )
    for key in _META_FIELDS:
        if key not in meta:
            raise ConfigurationError(
                f"{path}: checkpoint metadata lacks field {key!r}"
            )
    for key, has_type in (*_META_FIELDS.items(), *_OPTIONAL_META_FIELDS.items()):
        if key in meta and not has_type(meta[key]):
            raise ConfigurationError(
                f"{path}: checkpoint metadata field {key!r} has the wrong "
                f"type: {meta[key]!r}"
            )


def _read_archive(path: Path) -> tuple[dict | None, dict[str, np.ndarray]]:
    """``(metadata, parameter arrays)`` of an npz archive; metadata is
    ``None`` when the archive carries none. Unreadable files surface as
    ``zipfile``/``numpy`` errors (``BadZipFile``, ``EOFError``,
    ``ValueError``) for :func:`load_agent` to translate. The file is
    opened here, not by ``np.load``, so it is closed on those errors too
    (``np.load`` leaks its own handle when the zip directory is bad)."""
    with open(path, "rb") as handle:
        loaded = np.load(handle, allow_pickle=False)
        if not isinstance(loaded, np.lib.npyio.NpzFile):
            raise ValueError("file holds a bare array, not an npz archive")
        with loaded as archive:
            if _META_KEY not in archive:
                return None, {}
            meta = json.loads(bytes(archive[_META_KEY]).decode("utf-8"))
            # Materialise the arrays while the archive is open; NpzFile
            # reads lazily from the underlying zip.
            state = {
                key.replace("__", "."): archive[key]
                for key in archive.files
                if key != _META_KEY
            }
    return meta, state
