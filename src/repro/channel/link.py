"""The RSU-to-RSU migration link: SNR, spectral efficiency, and rate.

This is the radio model behind Eq. (1) of the paper:

    γ_n = b_n · log2(1 + ρ h0 d^-ε / N0)

with ρ the source-RSU transmit power, h0 the unit channel gain, d the
RSU-to-RSU distance, ε the path-loss exponent, and N0 the noise power.
With the paper's defaults the spectral efficiency is ≈ 38.54 bit/s/Hz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro import constants
from repro.channel.pathloss import LogDistancePathLoss, PathLossModel
from repro.utils.units import db_to_linear, dbm_to_watts
from repro.utils.validation import require_non_negative, require_positive

__all__ = ["LinkBudget", "RsuLink", "paper_link"]


@dataclass(frozen=True)
class LinkBudget:
    """The physical-layer parameters of a point-to-point link.

    Attributes:
        transmit_power_w: transmit power ρ in watts (linear).
        noise_power_w: average noise power N0 in watts (linear).
        path_loss: model mapping distance to linear channel gain.
        distance_m: transmitter-receiver distance in metres.
        fading_gain: optional extra multiplicative linear power gain
            (e.g. a draw from :mod:`repro.channel.fading`); 1.0 = none.
    """

    transmit_power_w: float
    noise_power_w: float
    path_loss: PathLossModel
    distance_m: float
    fading_gain: float = 1.0

    def __post_init__(self) -> None:
        require_positive("transmit_power_w", self.transmit_power_w)
        require_positive("noise_power_w", self.noise_power_w)
        require_positive("distance_m", self.distance_m)
        require_positive("fading_gain", self.fading_gain)

    @property
    def received_power_w(self) -> float:
        """Received signal power in watts."""
        return self.received_power_at(self.distance_m)

    def received_power_at(self, distance_m: float) -> float:
        """Received signal power in watts with the receiver at
        ``distance_m`` instead (every other parameter kept)."""
        return (
            self.transmit_power_w
            * self.path_loss.gain(distance_m)
            * self.fading_gain
        )

    @property
    def spectral_efficiency(self) -> float:
        """Shannon spectral efficiency ``log2(1 + SNR)`` in bit/s/Hz."""
        return self.spectral_efficiency_at(self.distance_m)

    def spectral_efficiency_at(self, distance_m: float) -> float:
        """:attr:`spectral_efficiency` with the receiver at ``distance_m``:
        the same bits as a copy of this budget at that distance, without
        building the copy (the city-grid column build calls this once per
        junction)."""
        return math.log2(
            1.0 + self.received_power_at(distance_m) / self.noise_power_w
        )


@dataclass(frozen=True)
class RsuLink:
    """A source-RSU → destination-RSU migration link.

    Wraps a :class:`LinkBudget` and exposes the rate/AoTM primitives the
    game consumes. Bandwidth and data size are in the *natural* game units
    (see DESIGN.md §3); physically, rate(b) = b · log2(1 + SNR).
    """

    budget: LinkBudget

    @property
    def spectral_efficiency(self) -> float:
        """``log2(1 + SNR)`` — the factor multiplying bandwidth in Eq. (1)."""
        return self.budget.spectral_efficiency

    def transmission_rate(self, bandwidth: float) -> float:
        """Achievable task transmission rate ``γ = b · log2(1 + SNR)``."""
        require_non_negative("bandwidth", bandwidth)
        return bandwidth * self.spectral_efficiency

    def transfer_time(self, data_size: float, bandwidth: float) -> float:
        """Time to push ``data_size`` through the link at ``bandwidth``.

        This is exactly the AoTM of a one-shot migration (Eq. 1). Returns
        ``inf`` for zero bandwidth rather than raising, mirroring the
        game's convention that no purchase means no (finite) migration.
        """
        require_non_negative("data_size", data_size)
        rate = self.transmission_rate(bandwidth)
        if rate == 0.0:
            return math.inf
        return data_size / rate

    def with_distance(self, distance_m: float) -> "RsuLink":
        """A copy of this link at a different RSU separation."""
        new_budget = LinkBudget(
            transmit_power_w=self.budget.transmit_power_w,
            noise_power_w=self.budget.noise_power_w,
            path_loss=self.budget.path_loss,
            distance_m=distance_m,
            fading_gain=self.budget.fading_gain,
        )
        return RsuLink(new_budget)

    def with_fading_gain(self, fading_gain: float) -> "RsuLink":
        """A copy of this link with a different fading realisation."""
        new_budget = LinkBudget(
            transmit_power_w=self.budget.transmit_power_w,
            noise_power_w=self.budget.noise_power_w,
            path_loss=self.budget.path_loss,
            distance_m=self.budget.distance_m,
            fading_gain=fading_gain,
        )
        return RsuLink(new_budget)


def paper_link(
    *,
    transmit_power_dbm: float = constants.TRANSMIT_POWER_DBM,
    channel_gain_db: float = constants.CHANNEL_GAIN_DB,
    distance_m: float = constants.RSU_DISTANCE_M,
    path_loss_exponent: float = constants.PATH_LOSS_EXPONENT,
    noise_power_dbm: float = constants.NOISE_POWER_DBM,
) -> RsuLink:
    """Build the RSU link with the paper's Sec. V-A radio parameters.

    >>> round(paper_link().spectral_efficiency, 2)
    38.54
    """
    budget = LinkBudget(
        transmit_power_w=dbm_to_watts(transmit_power_dbm),
        noise_power_w=dbm_to_watts(noise_power_dbm),
        path_loss=LogDistancePathLoss(
            reference_gain=db_to_linear(channel_gain_db),
            exponent=path_loss_exponent,
        ),
        distance_m=distance_m,
    )
    return RsuLink(budget)
