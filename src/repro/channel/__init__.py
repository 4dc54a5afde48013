"""Wireless channel substrate: path loss, fading and link budget.

The ``B_max`` rationing rule lives here too, as the private
``repro.channel.ofdma._rationing_rows`` kernel of the one Eq. 2/4/8 and
rationing chain (see :mod:`repro.core.utilities`).
"""

from repro.channel.fading import (
    FadingModel,
    LogNormalShadowing,
    NoFading,
    RayleighFading,
    RicianFading,
)
from repro.channel.link import LinkBudget, RsuLink, paper_link
from repro.channel.pathloss import FreeSpacePathLoss, LogDistancePathLoss, PathLossModel

__all__ = [
    "FadingModel",
    "NoFading",
    "RayleighFading",
    "RicianFading",
    "LogNormalShadowing",
    "LinkBudget",
    "RsuLink",
    "paper_link",
    "PathLossModel",
    "LogDistancePathLoss",
    "FreeSpacePathLoss",
]
