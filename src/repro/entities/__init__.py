"""Metaverse entities: the VMU profiles that trade in every market."""

from repro.entities.vmu import (
    VmuProfile,
    paper_fig2_population,
    sample_population,
    uniform_population,
)

__all__ = [
    "VmuProfile",
    "paper_fig2_population",
    "sample_population",
    "uniform_population",
]
