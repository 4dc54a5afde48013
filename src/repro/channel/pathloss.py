"""Path-loss models for the RSU-to-RSU backhaul link.

The paper uses a log-distance model implicitly through the SNR expression
``ρ h0 d^-ε / N0``. We expose that model explicitly plus a free-space
reference model so the channel substrate is reusable beyond the single
point evaluated in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.utils.validation import require_positive

__all__ = ["PathLossModel", "LogDistancePathLoss", "FreeSpacePathLoss"]


class PathLossModel:
    """Interface: linear channel power gain as a function of distance."""

    def gain(self, distance_m: float) -> float:
        """Linear power gain (<= reference gain) at ``distance_m`` metres."""
        raise NotImplementedError


@dataclass(frozen=True)
class LogDistancePathLoss(PathLossModel):
    """``gain(d) = h0 · d^-ε`` — the paper's channel model.

    Attributes:
        reference_gain: unit channel power gain ``h0`` (linear, not dB).
        exponent: path-loss coefficient ``ε``.
    """

    reference_gain: float
    exponent: float

    def __post_init__(self) -> None:
        require_positive("reference_gain", self.reference_gain)
        require_positive("exponent", self.exponent)

    def gain(self, distance_m: float) -> float:
        require_positive("distance_m", distance_m)
        return self.reference_gain * distance_m ** (-self.exponent)


@dataclass(frozen=True)
class FreeSpacePathLoss(PathLossModel):
    """Friis free-space path loss at a given carrier frequency.

    ``gain(d) = (c / (4 π f d))^2``. Provided as a physically grounded
    alternative for sensitivity studies; the paper's experiments use
    :class:`LogDistancePathLoss`.
    """

    frequency_hz: float

    _SPEED_OF_LIGHT = 299_792_458.0

    def __post_init__(self) -> None:
        require_positive("frequency_hz", self.frequency_hz)

    def gain(self, distance_m: float) -> float:
        require_positive("distance_m", distance_m)
        wavelength = self._SPEED_OF_LIGHT / self.frequency_hz
        return (wavelength / (4.0 * math.pi * distance_m)) ** 2
