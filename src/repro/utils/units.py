"""Unit conversions used across the radio and migration substrates.

The paper mixes logarithmic radio units (dB, dBm) with linear ones (watts)
and quotes data sizes in MB. Centralising the conversions here keeps every
formula in the rest of the library in linear SI-ish units and makes the
calibration in DESIGN.md §3 auditable.
"""

from __future__ import annotations

from repro.errors import UnitError

__all__ = [
    "db_to_linear",
    "dbm_to_watts",
    "dbm_to_milliwatts",
    "megabytes_to_data_units",
]

def db_to_linear(value_db: float) -> float:
    """Convert a power ratio from decibels to a linear ratio.

    >>> db_to_linear(0.0)
    1.0
    >>> db_to_linear(-20.0)
    0.01
    """
    return 10.0 ** (value_db / 10.0)


def dbm_to_milliwatts(value_dbm: float) -> float:
    """Convert a power from dBm to milliwatts."""
    return 10.0 ** (value_dbm / 10.0)


def dbm_to_watts(value_dbm: float) -> float:
    """Convert a power from dBm to watts.

    >>> dbm_to_watts(40.0)
    10.0
    """
    return dbm_to_milliwatts(value_dbm) / 1e3


def megabytes_to_data_units(size_mb: float, unit_mb: float = 100.0) -> float:
    """Convert megabytes to the game's natural data units (default 100 MB).

    The Stackelberg formulas consume ``D_n`` in units of ``unit_mb``
    megabytes; see DESIGN.md §3 for why the paper's numbers imply 100 MB.
    """
    if unit_mb <= 0.0:
        raise UnitError(f"data unit must be > 0 MB, got {unit_mb!r}")
    if size_mb < 0.0:
        raise UnitError(f"data size must be >= 0 MB, got {size_mb!r}")
    return size_mb / unit_mb
