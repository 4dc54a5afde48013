"""City-grid market construction: bitwise pin against the road-graph builder.

``city_markets`` derives the grid geometry analytically. The oracle below
is the graph-based builder it replaced: a networkx ``grid_city``, the
nearest neighbour from an ``out_edges`` scan, a ``RoadsideUnit`` per
market for the coverage test, and VMU populations drawn with scalar
``rng.uniform`` calls. Every market must match it field for field and bit
for bit.
"""

import dataclasses
import functools
import math
import struct

import numpy as np
import pytest

from repro import constants
from repro.channel.link import paper_link
from repro.core.stackelberg import MarketConfig, StackelbergMarket
from repro.entities.rsu import RoadsideUnit
from repro.entities.vmu import VmuProfile
from repro.errors import ConfigurationError
from repro.mobility.citygrid import CityGridSpec, city_markets
from repro.mobility.demand import DemandProfile, capacity_for_demand
from repro.mobility.road import RoadNetwork, grid_city

SOFT_HANDOVER_FACTOR = 0.5


def oracle_population(count, rng):
    return [
        VmuProfile(
            vmu_id=f"vmu-{i}",
            data_size_mb=float(rng.uniform(*constants.VT_DATA_SIZE_RANGE_MB)),
            immersion_coef=float(rng.uniform(*constants.IMMERSION_COEF_RANGE)),
        )
        for i in range(count)
    ]


def oracle_nearest_neighbor(network, junction):
    best = None
    for _, neighbor, length in network.graph.out_edges(junction, data="length_m"):
        key = (float(length), neighbor)
        if best is None or key < best:
            best = key
    return best[1], best[0]


@functools.lru_cache(maxsize=None)
def oracle_city(spec):
    """The graph-based build of every market of ``spec``, plus per market
    the chosen neighbour, its candidates' ids, and the coverage verdict."""
    network = grid_city(
        spec.rows, spec.cols, block_m=spec.block_m,
        speed_limit_mps=spec.speed_limit_mps,
    )
    base_link = paper_link()
    markets, choices = [], []
    for index in range(spec.num_markets):
        junction = f"g{index // spec.cols}-{index % spec.cols}"
        neighbor, road_length = oracle_nearest_neighbor(network, junction)
        rng = np.random.default_rng([spec.seed, index])
        population = oracle_population(
            int(rng.integers(1, spec.max_vmus + 1)), rng
        )
        vehicles = 1 + int(rng.poisson(spec.vehicles_per_cell))
        link = base_link.with_distance(road_length * float(rng.uniform(0.6, 1.0)))
        source_rsu = RoadsideUnit(
            rsu_id=f"rsu-{junction}",
            position_m=network.position(junction),
            coverage_radius_m=spec.coverage_radius,
        )
        crossing_rate_hz = vehicles * spec.speed_limit_mps / road_length
        covered = source_rsu.covers(network.position(neighbor))
        if covered:
            crossing_rate_hz *= SOFT_HANDOVER_FACTOR
        profile = DemandProfile(
            duration_s=spec.horizon_s,
            total_migrations=int(round(crossing_rate_hz * spec.horizon_s)),
            arrival_rate_hz=crossing_rate_hz,
            per_vehicle_rate_hz=crossing_rate_hz / vehicles,
            mean_interarrival_s=1.0 / crossing_rate_hz,
            interarrival_cv=1.0,
            busiest_pair=(
                junction, neighbor, int(round(crossing_rate_hz * spec.horizon_s))
            ),
        )
        capacity_natural = capacity_for_demand(
            profile,
            mean_data_units=float(np.mean([v.data_units for v in population])),
            target_aotm=spec.target_aotm,
            spectral_efficiency=link.spectral_efficiency,
        )
        config = MarketConfig(
            max_bandwidth=capacity_natural * MarketConfig().bandwidth_report_scale
        )
        markets.append(StackelbergMarket(population, config=config, link=link))
        candidates = [n for _, n in network.graph.out_edges(junction)]
        choices.append((neighbor, candidates, covered))
    return markets, choices


def bits(value):
    """``value`` with every float replaced by its IEEE-754 bytes, recursing
    through dataclasses, tuples and lists."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            (f.name, bits(getattr(value, f.name)))
            for f in dataclasses.fields(value)
        )
    if isinstance(value, (tuple, list)):
        return tuple(bits(item) for item in value)
    return value


def assert_markets_bitwise_equal(got, expected):
    assert len(got) == len(expected)
    for index, (a, b) in enumerate(zip(got, expected)):
        assert bits(a.vmus) == bits(b.vmus), index
        assert bits(a.config) == bits(b.config), index
        assert bits(a.link) == bits(b.link), index
        assert a._alphas.tobytes() == b._alphas.tobytes(), index
        assert a._data_units.tobytes() == b._data_units.tobytes(), index


SPEC_100x100 = CityGridSpec.for_markets(10000, seed=0)
SPEC_TRUNCATED = CityGridSpec(num_markets=23, rows=4, cols=7, seed=3)
SPEC_TINY_BLOCK = CityGridSpec.for_markets(rows=9, cols=13, block_m=0.1, seed=5)
SPEC_SOFT = CityGridSpec.for_markets(rows=5, cols=6, coverage_radius_m=500.0, seed=2)
SPEC_MANY_VMUS = CityGridSpec.for_markets(rows=3, cols=4, max_vmus=11, seed=9)
# A neighbour exactly on the coverage circle counts as covered.
SPEC_ON_CIRCLE = CityGridSpec.for_markets(rows=4, cols=5, coverage_radius_m=400.0)


@pytest.mark.parametrize(
    "spec",
    [SPEC_100x100, SPEC_TRUNCATED, SPEC_TINY_BLOCK, SPEC_SOFT, SPEC_MANY_VMUS,
     SPEC_ON_CIRCLE],
    ids=["100x100", "truncated", "block0.1", "soft", "max_vmus11", "on-circle"],
)
def test_full_build_matches_graph_oracle(spec):
    expected, _ = oracle_city(spec)
    assert_markets_bitwise_equal(city_markets(spec), expected)


@pytest.mark.parametrize(
    "start, stop",
    [(0, 0), (99, 100), (9900, 10000), (95, 105)],
    ids=["empty", "corner", "last-row", "crosses-row"],
)
def test_slices_match_graph_oracle(start, stop):
    expected, _ = oracle_city(SPEC_100x100)
    assert_markets_bitwise_equal(
        city_markets(SPEC_100x100, start, stop), expected[start:stop]
    )


def test_specs_reach_the_branches_they_pin():
    # At block_m=400 every road ties and the id string decides, so
    # "g10-4" < "g9-5" picks the same-row neighbour of "g10-5"; the
    # default radius (3/4 block) covers no neighbour.
    _, choices = oracle_city(SPEC_100x100)
    assert choices[10 * 100 + 5][0] == "g10-4"
    assert not any(covered for _, _, covered in choices)
    # At block_m=0.1 the float-rounded lengths differ, and for some
    # junction they, not the id string, decide.
    _, choices = oracle_city(SPEC_TINY_BLOCK)
    assert any(neighbor != min(ids) for neighbor, ids, _ in choices)
    for spec in (SPEC_SOFT, SPEC_ON_CIRCLE):
        _, choices = oracle_city(spec)
        assert all(covered for _, _, covered in choices)


def test_slice_builds_no_road_graph(monkeypatch):
    expected, _ = oracle_city(SPEC_100x100)

    def refuse(self):
        raise AssertionError("city_markets built a road graph")

    monkeypatch.setattr(RoadNetwork, "__init__", refuse)
    assert_markets_bitwise_equal(
        city_markets(SPEC_100x100, 5000, 5001), expected[5000:5001]
    )


FLOAT_FIELDS = (
    "block_m", "coverage_radius_m", "speed_limit_mps", "vehicles_per_cell",
    "target_aotm", "horizon_s",
)


@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0],
                         ids=["nan", "inf", "zero", "negative"])
@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_spec_rejects_degenerate_floats(field, value):
    with pytest.raises(ConfigurationError, match=field):
        CityGridSpec(num_markets=4, rows=2, cols=2, **{field: value})
    payload = CityGridSpec(num_markets=4, rows=2, cols=2).to_payload()
    payload[field] = value
    with pytest.raises(ConfigurationError, match=field):
        CityGridSpec.from_payload(payload)
