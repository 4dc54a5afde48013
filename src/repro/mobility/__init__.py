"""Vehicular mobility substrate: city-grid market generation and the
demand-driven capacity sizing behind each market's ``B_max``."""

from repro.mobility.citygrid import CityGridSpec, city_columns, city_markets
from repro.mobility.demand import capacity_for_demand

__all__ = [
    "CityGridSpec",
    "city_columns",
    "city_markets",
    "capacity_for_demand",
]
