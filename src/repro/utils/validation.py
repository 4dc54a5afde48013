"""Small argument-validation helpers shared by every subsystem.

These raise :class:`repro.errors.ConfigurationError` with a consistent
message format, so configuration mistakes surface at construction time with
the offending name and value rather than as NaNs deep inside a sweep.
"""

from __future__ import annotations

import math
import operator

from repro.errors import ConfigurationError

__all__ = [
    "require_positive",
    "require_non_negative",
    "require_in_range",
    "require_finite",
    "require_positive_int",
    "require_index",
    "require_probability",
]


def require_finite(name: str, value: float) -> float:
    """Return ``value`` if it is a finite real number, else raise."""
    if not math.isfinite(value):
        raise ConfigurationError(f"{name} must be finite, got {value!r}")
    return float(value)


def require_positive(name: str, value: float) -> float:
    """Return ``value`` if it is finite and strictly positive, else raise."""
    require_finite(name, value)
    if value <= 0.0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")
    return float(value)


def require_non_negative(name: str, value: float) -> float:
    """Return ``value`` if it is finite and >= 0, else raise."""
    require_finite(name, value)
    if value < 0.0:
        raise ConfigurationError(f"{name} must be >= 0, got {value!r}")
    return float(value)


def require_in_range(
    name: str,
    value: float,
    low: float,
    high: float,
    *,
    inclusive: bool = True,
) -> float:
    """Return ``value`` if it lies in ``[low, high]`` (or ``(low, high)``)."""
    require_finite(name, value)
    if inclusive:
        ok = low <= value <= high
        bounds = f"[{low}, {high}]"
    else:
        ok = low < value < high
        bounds = f"({low}, {high})"
    if not ok:
        raise ConfigurationError(f"{name} must be in {bounds}, got {value!r}")
    return float(value)


def require_positive_int(name: str, value: int) -> int:
    """Return ``value`` if it is an integer >= 1, else raise."""
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigurationError(f"{name} must be a positive int, got {value!r}")
    return value


def require_index(name: str, value: int, length: int) -> int:
    """Return ``value`` as an ``int`` if it indexes a sequence of
    ``length`` items from the front (``0 <= value < length``), else raise.

    Integral types (``int``, numpy integers) pass; ``bool``, floats and
    negative indices do not.
    """
    index = value
    if type(index) is not int:  # plain ints skip this: every query checks
        try:
            if isinstance(value, bool):
                raise TypeError
            index = operator.index(value)
        except TypeError:
            raise ConfigurationError(
                f"{name} must be an int, got {value!r}"
            ) from None
    if not 0 <= index < length:
        raise ConfigurationError(
            f"{name} {index} out of range for {length} items"
        )
    return index


def require_probability(name: str, value: float) -> float:
    """Return ``value`` if it lies in ``[0, 1]``."""
    return require_in_range(name, value, 0.0, 1.0)
