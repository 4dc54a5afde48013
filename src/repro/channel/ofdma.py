"""Proportional bandwidth rationing against the MSP's capacity ``B_max``.

The paper assumes OFDMA so that the channels occupied by source and
destination RSUs are orthogonal, and abstracts bandwidth as a continuous
quantity. When total VMU demand exceeds the MSP's capacity ``B_max``,
every VMU receives the same fraction of its request. This module holds
that rule: :func:`proportional_rationing` for one market (optionally
batched over prices) and the ``_rationing_rows`` kernel that
:class:`repro.core.marketstack.MarketStack` drives over a stack of markets.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AllocationError
from repro.utils.validation import require_positive

__all__ = ["proportional_rationing"]


def proportional_rationing(
    demands: list[float] | np.ndarray, capacity: float
) -> list[float] | np.ndarray:
    """Scale ``demands`` down proportionally so their sum fits ``capacity``.

    This is the rule the environment applies when total VMU demand exceeds
    ``B_max``: every VMU receives the same fraction of its request, which
    keeps the allocation envy-free for identical per-unit prices. Demands
    within capacity are returned unchanged.

    Accepts either a plain list (returns a list — the historical API), a
    1-D array of per-VMU demands (returns an array), or a batched array of
    shape ``(P, N)`` — one demand row per posted price — where each row is
    rationed independently against the same ``capacity`` in a single numpy
    pass. The batched form is what the vectorised leader landscape and the
    vector environment drive on every grid scan.
    """
    require_positive("capacity", capacity)
    array_in = isinstance(demands, np.ndarray)
    rows = np.asarray(demands, dtype=float)
    if rows.ndim not in (1, 2):
        raise AllocationError(
            f"demands must be 1-D (N,) or batched (P, N), got shape {rows.shape}"
        )
    if not np.all(np.isfinite(rows)):
        raise AllocationError(f"demands must be finite, got {demands!r}")
    if np.any(rows < 0.0):
        raise AllocationError(f"demands must be >= 0, got {demands!r}")
    totals = rows.sum(axis=-1)
    # np.where evaluates both branches, so guard the division against the
    # rows it will discard (zero or subnormal totals divide to inf/nan).
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scales = np.where(totals > capacity, capacity / totals, 1.0)
    granted = rows * (scales if rows.ndim == 1 else scales[:, np.newaxis])
    if array_in:
        return granted
    return [float(g) for g in granted]


def _rationing_rows(
    rows: np.ndarray, caps: np.ndarray, totals: np.ndarray
) -> np.ndarray:
    """Proportional rationing across a stack of markets with *different*
    capacities.

    ``rows`` holds per-market demand rows ``(M, N)`` or ``(M, R, N)``,
    each rationed independently against its market's ``caps`` entry
    ``(M,)``. ``totals`` are the row totals (``rows`` minus the trailing
    axis): ragged stacks reduce each market over its *own* population,
    because summing a zero-padded row can associate differently and drift
    a ulp from the per-market path. Nothing is checked here; callers pass
    float64 arrays of these shapes with finite demands ``>= 0`` and
    capacities ``> 0`` (:class:`repro.core.marketstack.MarketStack`
    validates once at construction and drives this every environment
    round). Rows within capacity come back scaled by exactly 1.0, and the
    expressions are :func:`proportional_rationing`'s, so a stacked call
    agrees bitwise with ``M`` separate calls.
    """
    caps_rows = caps if totals.ndim == 1 else caps[:, np.newaxis]
    # np.where evaluates both branches; guard the division like the
    # single-market path does.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scales = np.where(totals > caps_rows, caps_rows / totals, 1.0)
    return rows * scales[..., np.newaxis]
