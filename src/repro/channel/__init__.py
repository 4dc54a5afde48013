"""Wireless channel substrate: path loss, fading, link budget, rationing."""

from repro.channel.fading import (
    FadingModel,
    LogNormalShadowing,
    NoFading,
    RayleighFading,
    RicianFading,
)
from repro.channel.link import LinkBudget, RsuLink, paper_link
from repro.channel.ofdma import proportional_rationing
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
    "proportional_rationing",
    "PathLossModel",
    "LogDistancePathLoss",
    "FreeSpacePathLoss",
]
