"""Game-theory toolkit: scalar and batched concave solvers."""

from repro.game.solvers import (
    golden_section_maximize,
    golden_section_maximize_batch,
    grid_then_golden,
    grid_then_golden_batch,
)

__all__ = [
    "golden_section_maximize",
    "golden_section_maximize_batch",
    "grid_then_golden",
    "grid_then_golden_batch",
]
