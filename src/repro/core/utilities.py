"""Utility functions of the two game stages (Eqs. 2 and 4).

Follower (VMU n):  U_n(b_n) = α_n ln(1 + b_n·SE/D_n) − p·b_n
Leader  (MSP):     U_s(p)   = Σ_n (p − C)·b_n

Both are exposed in scalar and vectorised forms. On top of the population
axis (``N`` VMUs), every vectorised form also accepts a *price batch*: pass
a price vector of shape ``(P,)`` and the population functions broadcast to
``(P, N)`` (one row per price) while :func:`msp_utility` reduces to
``(P,)``. This is the numpy hot path the batched simulation engine
(:mod:`repro.sim`) drives — a full leader price grid evaluates in a single
pass instead of ``P`` Python-level solves. Scalar prices keep their exact
historical semantics (and return types), so the two entry points stay
bit-compatible row for row.

The private ``_*_rows`` kernels add a *market* axis ``M`` in front of
everything: per-market parameter matrices of shape ``(M, N)`` (ragged
populations padded — see :class:`repro.core.marketstack.MarketStack`, their
only caller) with per-market prices ``(M,)`` or price grids ``(M, R)``, and
per-market spectral efficiencies / unit costs ``(M,)``. Every stacked
operation is elementwise-identical to the per-market form, so a stacked
solve of ``M`` different markets agrees bitwise with ``M`` separate solves.
"""

from __future__ import annotations

import numpy as np

from repro.utils.validation import require_non_negative, require_positive

__all__ = [
    "vmu_utility",
    "vmu_utilities",
    "msp_utility",
    "follower_best_response",
]


def vmu_utility(
    immersion_coef: float,
    data_units: float,
    bandwidth: float,
    price: float,
    spectral_efficiency: float,
) -> float:
    """Utility of one VMU at purchase ``bandwidth`` under ``price`` (Eq. 2)."""
    require_positive("immersion_coef", immersion_coef)
    require_positive("data_units", data_units)
    require_non_negative("bandwidth", bandwidth)
    require_non_negative("price", price)
    require_positive("spectral_efficiency", spectral_efficiency)
    gain = immersion_coef * np.log1p(bandwidth * spectral_efficiency / data_units)
    return float(gain - price * bandwidth)


def vmu_utilities(
    immersion_coefs: np.ndarray,
    data_units: np.ndarray,
    bandwidths: np.ndarray,
    price: float | np.ndarray,
    spectral_efficiency: float,
) -> np.ndarray:
    """Vectorised Eq. (2) over a population, optionally batched over prices.

    With a scalar ``price`` and ``bandwidths`` of shape ``(N,)`` this is the
    historical per-population form. With ``price`` of shape ``(P,)`` and
    ``bandwidths`` of shape ``(P, N)`` it returns per-price utilities
    ``(P, N)`` in one pass.
    """
    alphas = np.asarray(immersion_coefs, dtype=float)
    data = np.asarray(data_units, dtype=float)
    bands = np.asarray(bandwidths, dtype=float)
    prices = np.asarray(price, dtype=float)
    if prices.ndim == 1:
        if bands.ndim != 2 or bands.shape[0] != prices.shape[0]:
            raise ValueError(
                f"price batch of shape {prices.shape} needs bandwidths of "
                f"shape (P, N), got {bands.shape}"
            )
        prices = prices[:, np.newaxis]
    gains = alphas * np.log1p(bands * spectral_efficiency / data)
    return gains - prices * bands


def msp_utility(
    price: float | np.ndarray, unit_cost: float, bandwidths: np.ndarray
) -> float | np.ndarray:
    """Leader utility ``Σ (p − C)·b_n`` (Eq. 4).

    Scalar ``price`` + ``(N,)`` bandwidths returns a float; a price batch
    ``(P,)`` + ``(P, N)`` bandwidths returns the per-price utilities ``(P,)``.
    """
    require_positive("unit_cost", unit_cost)
    bands = np.asarray(bandwidths, dtype=float)
    if np.any(bands < 0.0):
        raise ValueError("bandwidths must be >= 0")
    prices = np.asarray(price, dtype=float)
    if prices.ndim == 0:
        require_non_negative("price", float(prices))
        return float((float(prices) - unit_cost) * bands.sum())
    if np.any(~np.isfinite(prices)) or np.any(prices < 0.0):
        raise ValueError(f"prices must be finite and >= 0, got {prices!r}")
    if bands.ndim != 2 or bands.shape[0] != prices.shape[0]:
        raise ValueError(
            f"price batch of shape {prices.shape} needs bandwidths of shape "
            f"(P, N), got {bands.shape}"
        )
    return (prices - unit_cost) * bands.sum(axis=-1)


def follower_best_response(
    immersion_coefs: np.ndarray,
    data_units: np.ndarray,
    price: float | np.ndarray,
    spectral_efficiency: float,
) -> np.ndarray:
    """Vectorised best response of Eq. (8), truncated at zero.

    ``b*_n = max(0, α_n/p − D_n/SE)``. The truncation implements the
    feasibility constraint ``b_n > 0`` of Problem 1: a VMU facing a price
    above its drop-out threshold ``α_n·SE/D_n`` buys nothing.

    ``price`` may be a scalar (returns ``(N,)``) or a vector of shape
    ``(P,)`` (returns the best-response matrix ``(P, N)``, one row per
    posted price).
    """
    require_positive("spectral_efficiency", spectral_efficiency)
    alphas = np.asarray(immersion_coefs, dtype=float)
    data = np.asarray(data_units, dtype=float)
    if np.any(alphas <= 0.0) or np.any(data <= 0.0):
        raise ValueError("immersion coefficients and data sizes must be > 0")
    prices = np.asarray(price, dtype=float)
    if prices.ndim == 0:
        require_positive("price", float(prices))
        return np.maximum(0.0, alphas / float(prices) - data / spectral_efficiency)
    if np.any(~np.isfinite(prices)) or np.any(prices <= 0.0):
        raise ValueError(f"prices must be finite and > 0, got {prices!r}")
    return np.maximum(
        0.0,
        alphas[np.newaxis, :] / prices[:, np.newaxis]
        - data[np.newaxis, :] / spectral_efficiency,
    )


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
    environment round). Each entry is the expression
    :func:`follower_best_response` evaluates, so a stacked solve agrees
    bitwise with ``M`` separate solves.
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
