"""Scalar optimisation primitives for concave game stages.

Both stages of the paper's Stackelberg game are strictly concave in their
scalar decision variable (Theorems 1-2), so golden-section search is an
exact tool here. It refines the closed-form equilibrium candidates and
drives the searches with no closed form (the Bayesian leader's expected
utility, the welfare planner).
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

from repro.errors import ConfigurationError, GameError
from repro.utils.validation import require_finite

__all__ = [
    "golden_section_maximize",
    "golden_section_maximize_batch",
    "grid_then_golden",
    "grid_then_golden_batch",
    "uniform_price_grid",
]


def uniform_price_grid(low: float, high: float, grid_points: int) -> np.ndarray:
    """A uniform ``(grid_points,)`` grid on ``[low, high]``.

    The one grid construction every landscape scan shares: the leader's
    scan (:meth:`StackelbergMarket.leader_landscape`) and
    :func:`grid_then_golden`'s coarse pass both build their grids here.
    """
    if grid_points < 2:
        raise ConfigurationError(f"grid_points must be >= 2, got {grid_points}")
    if not low < high:
        raise ConfigurationError(f"need low < high, got [{low}, {high}]")
    step = (high - low) / (grid_points - 1)
    return low + step * np.arange(grid_points)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/φ ≈ 0.618


def golden_section_maximize(
    objective: Callable[[float], float],
    low: float,
    high: float,
    *,
    tolerance: float = 1e-10,
    max_iterations: int = 500,
) -> tuple[float, float]:
    """Maximise a unimodal ``objective`` on ``[low, high]``.

    Returns ``(argmax, max_value)``. For strictly concave objectives the
    result is the global maximiser to within ``tolerance``.

    Raises:
        GameError: if ``low > high`` or the bracket is degenerate.
    """
    require_finite("low", low)
    require_finite("high", high)
    if low > high:
        raise GameError(f"invalid bracket: low={low} > high={high}")
    if high - low <= tolerance:
        mid = 0.5 * (low + high)
        return mid, objective(mid)

    a, b = low, high
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = objective(c), objective(d)
    for _ in range(max_iterations):
        if b - a <= tolerance:
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = objective(d)
    best = 0.5 * (a + b)
    return best, objective(best)


def golden_section_maximize_batch(
    objective: Callable[[np.ndarray], np.ndarray],
    lows: np.ndarray,
    highs: np.ndarray,
    *,
    tolerance: float = 1e-10,
    max_iterations: int = 500,
) -> tuple[np.ndarray, np.ndarray]:
    """Maximise ``M`` unimodal objectives on ``M`` brackets in lockstep.

    The batched form of :func:`golden_section_maximize`: ``objective`` maps
    a probe vector ``(M,)`` to values ``(M,)`` (e.g. one stacked market
    solve), and every iteration advances **all** still-open brackets with a
    single evaluation. Per bracket the sequence of probe points, the
    ``fc >= fd`` branch decisions, and the iteration count are the exact
    elementwise replica of the scalar algorithm, so ``result[m]`` equals
    ``golden_section_maximize(obj_m, lows[m], highs[m])`` bitwise whenever
    the batched objective agrees with the scalar one row for row. Brackets
    converge at different rates; a converged bracket is frozen (its probe
    slot is filled with its midpoint and the evaluation discarded) while
    the rest keep iterating.

    Returns ``(argmaxes (M,), max_values (M,))``.

    Raises:
        GameError: if any bracket has ``lows[m] > highs[m]`` or a
            non-finite endpoint.
    """
    a = np.array(lows, dtype=float)
    b = np.array(highs, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise GameError(
            f"lows and highs must share one (M,) shape, got {a.shape} "
            f"and {b.shape}"
        )
    if np.any(~np.isfinite(a)) or np.any(~np.isfinite(b)):
        raise GameError("brackets must be finite")
    if np.any(a > b):
        raise GameError("invalid bracket: low > high")

    # Scalar early-return case: brackets already within tolerance resolve
    # to their midpoint and never iterate.
    mid = 0.5 * (a + b)
    degenerate = (b - a) <= tolerance
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = np.asarray(objective(np.where(degenerate, mid, c)), dtype=float)
    fd = np.asarray(objective(np.where(degenerate, mid, d)), dtype=float)
    size = a.shape[0]
    active = ~degenerate
    for _ in range(max_iterations):
        active = active & ((b - a) > tolerance)
        open_count = int(active.sum())
        if not open_count:
            break
        ge = fc >= fd
        old_c, old_d, old_fc, old_fd = c, d, fc, fd
        # left:  b, d, fd = d, c, fc; then c = b - 1/φ·(b-a), eval fc
        # right: a, c, fc = c, d, fd; then d = a + 1/φ·(b-a), eval fd
        if open_count == size:
            # Brackets of similar width converge in lockstep, so most
            # iterations have every row open: with ``right == ~left`` each
            # three-way select below collapses to one ``np.where`` — the
            # same elementwise values, about half the dispatches. This
            # loop's fixed ~50 sequential rounds are the latency floor of
            # a small dirty-row re-solve, so the overhead matters.
            left = ge
            b = np.where(left, old_d, b)
            a = np.where(left, a, old_c)
            step = _INV_PHI * (b - a)
            c = np.where(left, b - step, old_d)
            d = np.where(left, old_c, a + step)
            probe = np.where(left, c, d)
            values = np.asarray(objective(probe), dtype=float)
            fc = np.where(left, values, old_fd)
            fd = np.where(left, old_fc, values)
            continue
        left = active & ge
        right = active & ~ge
        b = np.where(left, old_d, b)
        a = np.where(right, old_c, a)
        new_c = b - _INV_PHI * (b - a)
        new_d = a + _INV_PHI * (b - a)
        c = np.where(left, new_c, np.where(right, old_d, old_c))
        d = np.where(right, new_d, np.where(left, old_c, old_d))
        # One evaluation advances every open bracket; frozen rows probe
        # their current midpoint and the value is discarded.
        probe = np.where(left, c, np.where(right, d, 0.5 * (a + b)))
        values = np.asarray(objective(probe), dtype=float)
        fc = np.where(left, values, np.where(right, old_fd, old_fc))
        fd = np.where(right, values, np.where(left, old_fc, old_fd))
    best = np.where(degenerate, mid, 0.5 * (a + b))
    return best, np.asarray(objective(best), dtype=float)


def _probe_vector_scan(
    objective: Callable[[float], float], grid: np.ndarray
) -> np.ndarray | None:
    """Try evaluating a scalar objective over the whole grid in one call.

    Many objectives are written with numpy ufuncs and transparently map a
    price vector to a value vector; when that works, the coarse scan costs
    one batched evaluation instead of ``grid_points`` Python-level calls.
    The probe is rejected (``None``; callers run the scalar loop) when the
    callable raises the typical scalar-only errors (``TypeError`` /
    ``ValueError``, e.g. ``float(array)`` or an ambiguous ``if p > t``) or
    returns anything but one finite-shaped value per grid point — a scalar
    objective that silently reduces over the grid comes back with the
    wrong shape and is therefore never trusted. An accepted batched
    evaluation performs the same elementwise float64 arithmetic as the
    per-point loop, so its argmax (first maximum, the scalar loop's
    tie-break) picks the identical bracket bitwise.
    """
    try:
        values = np.asarray(objective(grid), dtype=float)
    except (TypeError, ValueError):
        return None
    if values.shape != grid.shape:
        return None
    return values


def grid_then_golden(
    objective: Callable[[float], float],
    low: float,
    high: float,
    *,
    grid_points: int = 256,
    tolerance: float = 1e-10,
    vector_objective: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[float, float]:
    """Global maximisation of a (possibly piecewise) continuous objective.

    Coarse grid scan to find the best bracket, then golden-section
    refinement inside it. Robust to the kinks the B_max rationing and
    follower drop-out thresholds introduce into the leader's utility.

    When ``vector_objective`` is supplied (a batched form evaluating a whole
    price vector ``(P,)`` to values ``(P,)`` in one call), the grid scan runs
    as a single vectorised evaluation instead of ``grid_points`` Python-level
    calls — the hot path of every equilibrium solve and fig-3 sweep. The
    golden refinement stays scalar (it brackets three points at a time), so
    the two entry points return identical results whenever the batched form
    agrees with ``objective`` pointwise. Without an explicit
    ``vector_objective`` the scan first probes ``objective`` with the whole
    grid vector and uses the batched result when the callable transparently
    vectorises (ufunc-style objectives); scalar-only callables fall back to
    the per-point loop with identical results.
    """
    if grid_points < 3:
        raise GameError(f"grid_points must be >= 3, got {grid_points}")
    if low > high:
        raise GameError(f"invalid bracket: low={low} > high={high}")
    if high == low:
        return low, objective(low)
    step = (high - low) / (grid_points - 1)
    grid = uniform_price_grid(low, high, grid_points)
    if vector_objective is not None:
        values = np.asarray(vector_objective(grid), dtype=float)
        if values.shape != grid.shape:
            raise GameError(
                f"vector_objective returned shape {values.shape}, "
                f"expected {grid.shape}"
            )
        best_idx = int(np.argmax(values))
    else:
        values = _probe_vector_scan(objective, grid)
        if values is not None:
            best_idx = int(np.argmax(values))
        else:
            scalar_values = [objective(float(p)) for p in grid]
            best_idx = max(range(grid_points), key=scalar_values.__getitem__)
    return golden_section_maximize(
        objective,
        low + max(0, best_idx - 1) * step,
        low + min(grid_points - 1, best_idx + 1) * step,
        tolerance=tolerance,
    )


def grid_then_golden_batch(
    objective: Callable[[np.ndarray], np.ndarray],
    lows: np.ndarray,
    highs: np.ndarray,
    *,
    grid_points: int = 256,
    tolerance: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray]:
    """Global maximisation of ``M`` objectives on ``M`` intervals, stacked.

    The batched form of :func:`grid_then_golden`: one coarse scan over the
    ``(M, grid_points)`` grid matrix (every interval gets the same
    ``lows[m] + step_m·arange`` grid the scalar path builds), then a
    lockstep :func:`golden_section_maximize_batch` refinement inside each
    interval's best bracket. ``objective`` must accept both probe shapes —
    a grid matrix ``(M, R)`` and a probe vector ``(M,)`` — returning values
    of the same shape (``MarketStack.outcomes_stacked`` does exactly this).

    Per interval the result equals ``grid_then_golden(obj_m, lows[m],
    highs[m], ...)`` bitwise whenever the batched objective agrees with the
    scalar one row for row; degenerate intervals (``lows[m] == highs[m]``)
    resolve to their single point like the scalar early return.
    """
    if grid_points < 3:
        raise GameError(f"grid_points must be >= 3, got {grid_points}")
    low_v = np.asarray(lows, dtype=float)
    high_v = np.asarray(highs, dtype=float)
    if low_v.ndim != 1 or low_v.shape != high_v.shape:
        raise GameError(
            f"lows and highs must share one (M,) shape, got {low_v.shape} "
            f"and {high_v.shape}"
        )
    if np.any(low_v > high_v):
        raise GameError("invalid bracket: low > high")
    steps = (high_v - low_v) / (grid_points - 1)
    grids = low_v[:, np.newaxis] + steps[:, np.newaxis] * np.arange(grid_points)
    values = np.asarray(objective(grids), dtype=float)
    if values.shape != grids.shape:
        raise GameError(
            f"objective returned shape {values.shape}, expected {grids.shape}"
        )
    best_idx = np.argmax(values, axis=1)
    return golden_section_maximize_batch(
        objective,
        low_v + np.maximum(0, best_idx - 1) * steps,
        low_v + np.minimum(grid_points - 1, best_idx + 1) * steps,
        tolerance=tolerance,
    )
