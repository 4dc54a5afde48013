"""Result persistence: JSON writers for experiment outputs.

Experiments write their measured series to disk so EXPERIMENTS.md numbers can
be regenerated and diffed. Numpy scalars/arrays are converted to plain Python
types on the way out, so the files are readable without numpy.
"""

from __future__ import annotations

import json
import os
import uuid
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from repro.errors import ExperimentError

__all__ = ["to_jsonable", "save_json", "write_json_durably", "load_json"]


def to_jsonable(value: object) -> object:
    """Recursively convert numpy scalars/arrays and tuples to JSON-able types."""
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "biuf":
            # Numeric arrays are plain Python scalars after one tolist().
            return value.tolist()
        return [to_jsonable(v) for v in value.tolist()]
    if isinstance(value, Mapping):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, Path):
        return str(value)
    raise ExperimentError(f"cannot serialise value of type {type(value).__name__}")


def save_json(path: str | Path, payload: object, *, indent: int = 2) -> Path:
    """Write ``payload`` to ``path`` as JSON, creating parent directories."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(to_jsonable(payload), indent=indent) + "\n")
    return target


def write_json_durably(path: str | Path, payload: object) -> str:
    """Write JSON-able ``payload`` to ``path`` so that no reader ever sees
    ``path`` partial; returns the text written.

    The text is compact JSON (no indent, so ``json`` takes its C encoder).
    It goes to a unique temporary name beside ``path`` (pid and a random
    suffix, so concurrent writers never share one), is ``fsync``-ed, and
    only then renamed over ``path``.
    """
    text = json.dumps(payload, separators=(",", ":")) + "\n"
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    temporary = target.with_name(
        f"{target.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
    )
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, target)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise
    return text


def load_json(path: str | Path) -> object:
    """Load JSON from ``path``."""
    return json.loads(Path(path).read_text())
