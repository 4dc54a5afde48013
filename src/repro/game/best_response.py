"""Best-response dynamics for the follower subgame.

In the paper's model the followers' best responses are mutually decoupled
(each VMU's utility depends only on its own bandwidth and the price), so
simultaneous best-response dynamics converge in a single round. We still
implement general damped dynamics because the B_max-rationed variant *does*
couple followers (one VMU's demand dilutes everyone's allocation), and the
dynamics give the fixed point of that coupled game.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.errors import GameError
from repro.utils.validation import require_in_range, require_positive_int

__all__ = [
    "BestResponseResult",
    "iterate_best_response",
]

BestResponseMap = Callable[[np.ndarray], np.ndarray]
"""Maps the full strategy profile to every player's best response."""


@dataclass(frozen=True)
class BestResponseResult:
    """Outcome of best-response dynamics.

    Attributes:
        strategies: the final strategy profile.
        iterations: rounds executed.
        converged: whether the sup-norm change fell below tolerance.
        residual: final sup-norm change between consecutive profiles.
    """

    strategies: np.ndarray
    iterations: int
    converged: bool
    residual: float


def iterate_best_response(
    best_response: BestResponseMap,
    initial: Sequence[float],
    *,
    damping: float = 1.0,
    tolerance: float = 1e-10,
    max_iterations: int = 10_000,
) -> BestResponseResult:
    """Run damped simultaneous best-response dynamics to a fixed point.

    ``x_{t+1} = (1 − λ) x_t + λ BR(x_t)`` with damping ``λ``; ``λ = 1`` is
    undamped. Convergence to a fixed point of ``BR`` is exactly a Nash
    equilibrium of the underlying game.

    Raises:
        GameError: if the map returns a profile of the wrong shape.
    """
    require_in_range("damping", damping, 0.0, 1.0, inclusive=True)
    if damping == 0.0:
        raise GameError("damping must be > 0 (0 never moves)")
    require_positive_int("max_iterations", max_iterations)

    current = np.asarray(initial, dtype=float).copy()
    residual = float("inf")
    for iteration in range(1, max_iterations + 1):
        response = np.asarray(best_response(current), dtype=float)
        if response.shape != current.shape:
            raise GameError(
                f"best_response returned shape {response.shape}, "
                f"expected {current.shape}"
            )
        updated = (1.0 - damping) * current + damping * response
        residual = float(np.max(np.abs(updated - current))) if current.size else 0.0
        current = updated
        if residual <= tolerance:
            return BestResponseResult(
                strategies=current,
                iterations=iteration,
                converged=True,
                residual=residual,
            )
    return BestResponseResult(
        strategies=current,
        iterations=max_iterations,
        converged=False,
        residual=residual,
    )
