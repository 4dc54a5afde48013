"""Game-theory toolkit: concave solvers and best-response dynamics."""

from repro.game.best_response import (
    BestResponseResult,
    iterate_best_response,
)
from repro.game.solvers import (
    bisect_root,
    golden_section_maximize,
    golden_section_maximize_batch,
    grid_then_golden,
    grid_then_golden_batch,
)

__all__ = [
    "BestResponseResult",
    "iterate_best_response",
    "bisect_root",
    "golden_section_maximize",
    "golden_section_maximize_batch",
    "grid_then_golden",
    "grid_then_golden_batch",
]
