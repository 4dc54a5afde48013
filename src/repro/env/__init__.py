"""POMDP environments for the pricing game."""

from repro.env.migration_game import MigrationGameEnv
from repro.env.vector import VectorMigrationEnv

__all__ = [
    "MigrationGameEnv",
    "VectorMigrationEnv",
]
