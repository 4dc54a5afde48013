"""Proportional bandwidth rationing against the MSP's capacity ``B_max``.

The paper assumes OFDMA so that the channels occupied by source and
destination RSUs are orthogonal, and abstracts bandwidth as a continuous
quantity. When total VMU demand exceeds the MSP's capacity ``B_max``,
every VMU receives the same fraction of its request, which keeps the
allocation envy-free for identical per-unit prices. This module holds
that rule as the ``_rationing_rows`` kernel, the rationing step of the
one demand → rationing → utility chain (see :mod:`repro.core.utilities`)
that :class:`repro.core.marketstack.MarketStack` and
:class:`repro.core.multimsp.MultiMspMarket` drive.
"""

from __future__ import annotations

import numpy as np


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
    round). Rows within capacity come back scaled by exactly 1.0, and
    every row is scaled by its own market's entries only, so a stacked
    call agrees bitwise with ``M`` separate calls.
    """
    caps_rows = caps if totals.ndim == 1 else caps[:, np.newaxis]
    # np.where evaluates both branches, so guard the division against the
    # rows it will discard (zero or subnormal totals divide to inf/nan).
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scales = np.where(totals > caps_rows, caps_rows / totals, 1.0)
    return rows * scales[..., np.newaxis]
