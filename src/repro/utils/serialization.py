"""Result persistence: JSON and CSV writers for experiment outputs.

Experiments write their measured series to disk so EXPERIMENTS.md numbers can
be regenerated and diffed. Numpy scalars/arrays are converted to plain Python
types on the way out, so the files are readable without numpy.
"""

from __future__ import annotations

import csv
import json
from collections.abc import Mapping, Sequence
from pathlib import Path

import numpy as np

from repro.errors import ExperimentError

__all__ = ["to_jsonable", "save_json", "load_json", "save_csv", "load_csv"]


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


def save_csv(
    path: str | Path,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> Path:
    """Write rows to ``path`` as CSV with a header line."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with target.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(headers))
        for row in rows:
            if len(row) != len(headers):
                raise ExperimentError(
                    f"row {row!r} has {len(row)} cells, expected {len(headers)}"
                )
            writer.writerow([to_jsonable(cell) for cell in row])
    return target


def load_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """Read a CSV written by :func:`save_csv`; returns (headers, rows)."""
    with Path(path).open(newline="") as handle:
        reader = csv.reader(handle)
        try:
            headers = next(reader)
        except StopIteration as exc:
            raise ExperimentError(f"empty CSV file: {path}") from exc
        return headers, [row for row in reader]
