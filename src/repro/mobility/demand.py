"""Demand-driven capacity sizing for a migration market.

Bridges the mobility substrate and the market: given the arrival rate of
migration tasks at an RSU, size the bandwidth the MSP must hold to serve
that demand at a target AoTM. This is the capacity-planning question
hiding behind the paper's fixed ``B_max``.
"""

from __future__ import annotations

from repro.utils.validation import require_positive

__all__ = ["capacity_for_demand", "sized_capacity"]

_CONCURRENCY_MARGIN = 1.5


def capacity_for_demand(
    arrival_rate_hz: float,
    *,
    mean_data_units: float,
    target_aotm: float,
    spectral_efficiency: float,
    concurrency_margin: float = _CONCURRENCY_MARGIN,
) -> float:
    """Bandwidth the MSP should hold to serve the demand at a target AoTM.

    Little's-law sizing: migrations in flight ≈ arrival_rate × AoTM; each
    in-flight migration needs ``b = D / (A_target · SE)`` (Eq. 1 inverted).
    The concurrency margin absorbs burstiness (use ~1 for regular
    streams, higher for Poisson-like arrivals).

    Returns bandwidth in natural units. Every argument must be finite and
    > 0 (:class:`~repro.errors.ConfigurationError` otherwise).
    """
    require_positive("arrival_rate_hz", arrival_rate_hz)
    require_positive("mean_data_units", mean_data_units)
    require_positive("target_aotm", target_aotm)
    require_positive("spectral_efficiency", spectral_efficiency)
    require_positive("concurrency_margin", concurrency_margin)
    return sized_capacity(
        arrival_rate_hz,
        mean_data_units,
        target_aotm,
        spectral_efficiency,
        concurrency_margin,
    )


def sized_capacity(
    arrival_rate_hz,
    mean_data_units,
    target_aotm,
    spectral_efficiency,
    concurrency_margin=_CONCURRENCY_MARGIN,
):
    """The unvalidated formula of :func:`capacity_for_demand`.

    Only ``*`` and ``/``, each rounded once, so it evaluates elementwise
    on arrays with the bits of the scalar call — the city-grid column
    build sizes a whole slice of markets in one call and validates the
    resulting ``B_max`` column instead of every input.
    """
    in_flight = arrival_rate_hz * target_aotm
    per_flow = mean_data_units / (target_aotm * spectral_efficiency)
    return concurrency_margin * in_flight * per_flow
