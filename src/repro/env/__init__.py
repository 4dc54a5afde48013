"""The pricing POMDP (paper Sec. IV-A): one array-native env over ``E`` games."""

from repro.env.vector import VectorMigrationEnv, history_entries

__all__ = [
    "VectorMigrationEnv",
    "history_entries",
]
