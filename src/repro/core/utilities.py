"""The utility chain of the two game stages (Eqs. 2, 4 and 8).

Follower (VMU n):  U_n(b_n) = α_n ln(1 + b_n·SE/D_n) − p·b_n    (Eq. 2)
Leader  (MSP):     U_s(p)   = Σ_n (p − C)·b_n                   (Eq. 4)
Best response:     b*_n     = max(0, α_n/p − D_n/SE)            (Eq. 8)

These ``_*_rows`` kernels are the library's only implementation of the
three formulas; with :func:`repro.channel.ofdma._rationing_rows` (the
``B_max`` rule) they form the one demand → rationing → utility chain
every solve, environment step and sweep runs. Each kernel works over a
*market* axis ``M``: per-market parameter matrices of shape ``(M, N)``
(ragged populations padded — see
:class:`repro.core.marketstack.MarketStack`) with per-market prices
``(M,)`` or price grids ``(M, R)``, and per-market spectral efficiencies
/ unit costs ``(M,)``. Their callers are
:class:`~repro.core.marketstack.MarketStack` and
:class:`~repro.core.multimsp.MultiMspMarket` (which drives them with
``M = 1``); both validate their inputs once, so the kernels check
nothing. Every stacked operation is elementwise, so a stacked solve of
``M`` different markets agrees bitwise with ``M`` separate solves.
"""

from __future__ import annotations

import numpy as np


def _follower_best_response_rows(
    alphas: np.ndarray,
    data: np.ndarray,
    p: np.ndarray,
    se: np.ndarray,
) -> np.ndarray:
    """Eq. (8) best responses across a stack of different markets.

    ``alphas`` and ``data`` are ``(M, N)``, ``se`` is ``(M,)``, and ``p``
    is one price per market ``(M,)`` or a per-market grid ``(M, R)``; the
    result is ``(M, N)`` or ``(M, R, N)``. No input is checked: callers
    pass float64 arrays of these shapes with ``α, D, SE > 0`` and finite
    ``p > 0`` (:class:`repro.core.marketstack.MarketStack` validates its
    static parameters once at construction, then drives this kernel every
    environment round). Each entry depends on its own market's row only,
    so a stacked solve agrees bitwise with ``M`` separate solves.
    """
    if p.ndim == 1:
        return np.maximum(
            0.0, alphas / p[:, np.newaxis] - data / se[:, np.newaxis]
        )
    return np.maximum(
        0.0,
        alphas[:, np.newaxis, :] / p[:, :, np.newaxis]
        - data[:, np.newaxis, :] / se[:, np.newaxis, np.newaxis],
    )


def _vmu_utilities_rows(
    alphas: np.ndarray,
    data: np.ndarray,
    bands: np.ndarray,
    p: np.ndarray,
    se: np.ndarray,
) -> np.ndarray:
    """Eq. (2) follower utilities across a stack of different markets.

    ``bands`` is ``(M, N)`` with prices ``(M,)`` or ``(M, R, N)`` with
    prices ``(M, R)``; the result has the bandwidths' shape. The other
    inputs and the (unchecked) caller contract are those of
    :func:`_follower_best_response_rows`.
    """
    if p.ndim == 1:
        gains = alphas * np.log1p(bands * se[:, np.newaxis] / data)
        return gains - p[:, np.newaxis] * bands
    gains = alphas[:, np.newaxis, :] * np.log1p(
        bands * se[:, np.newaxis, np.newaxis] / data[:, np.newaxis, :]
    )
    return gains - p[:, :, np.newaxis] * bands


def _msp_utilities_rows(
    p: np.ndarray, costs: np.ndarray, totals: np.ndarray
) -> np.ndarray:
    """Eq. (4) leader utilities across a stack of different markets.

    Takes the already-reduced per-market demand totals (``Σ_n b_n``, shape
    matching ``p``) rather than the bandwidth matrix: ragged stacks must
    sum each market over its *own* population to stay bitwise equal to the
    per-market path, so the reduction lives with the caller that knows the
    population boundaries. ``costs`` is ``(M,)`` with ``C > 0``; nothing
    is checked here.
    """
    if p.ndim == 1:
        return (p - costs) * totals
    return (p - costs[:, np.newaxis]) * totals
