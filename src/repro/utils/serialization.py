"""Result persistence: JSON writers for experiment outputs.

Experiments write their measured series to disk so EXPERIMENTS.md numbers can
be regenerated and diffed. Numpy scalars/arrays are converted to plain Python
types on the way out, so the files are readable without numpy.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from pathlib import Path

import numpy as np

from repro.errors import ExperimentError

__all__ = ["to_jsonable", "save_json", "load_json"]


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


def load_json(path: str | Path) -> object:
    """Load JSON from ``path``."""
    return json.loads(Path(path).read_text())
