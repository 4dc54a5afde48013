"""Shared utilities: units, validation, RNG streams, tables, serialization."""

from repro.utils.rng import as_generator, spawn_children
from repro.utils.stats import SummaryStats, compare_means, summarize
from repro.utils.tables import Table, format_table
from repro.utils.units import (
    db_to_linear,
    dbm_to_milliwatts,
    dbm_to_watts,
    megabytes_to_data_units,
)
from repro.utils.validation import (
    require_finite,
    require_in_range,
    require_non_negative,
    require_positive,
    require_positive_int,
    require_probability,
)

__all__ = [
    "SummaryStats",
    "compare_means",
    "summarize",
    "as_generator",
    "spawn_children",
    "Table",
    "format_table",
    "db_to_linear",
    "dbm_to_watts",
    "dbm_to_milliwatts",
    "megabytes_to_data_units",
    "require_finite",
    "require_in_range",
    "require_non_negative",
    "require_positive",
    "require_positive_int",
    "require_probability",
]
