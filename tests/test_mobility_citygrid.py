"""City-grid market construction: bitwise pin against a road-graph builder.

``city_columns`` derives the grid geometry analytically and draws each
junction straight into ``MarketStack`` columns; ``city_markets`` builds
the objects from those columns. The oracle below builds the road graph
the analytic geometry replaced, in pure Python, one market object at a
time: every junction's position, its out-roads with their lengths, the
nearest neighbour from a scan of those roads, a coverage-disc test from
the source RSU, the Little's-law capacity written out, and VMU
populations drawn with scalar ``rng.uniform`` calls. Both routes must
match it bit for bit: every market field for field, and the column-built
stack's arrays and equilibria against ``MarketStack(oracle markets)``.
"""

import dataclasses
import functools
import math
import os
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import constants
from repro.channel.link import LinkBudget, paper_link
from repro.core.marketstack import (
    DEFAULT_CHUNK_BYTES,
    MarketStack,
    solve_scratch_bytes_per_market,
)
from repro.core.stackelberg import MarketConfig, StackelbergMarket
from repro.entities.vmu import VmuProfile
from repro.errors import ConfigurationError
from repro.experiments import run_experiment
from repro.experiments.cityscale import run_city_chunk_job
from repro.mobility.citygrid import (
    CityGridSpec,
    _population_means,
    city_columns,
    city_markets,
)
from repro.utils.rng import POISSON_LAM_MAX
from rng_oracle import ptrs_first_try

SOFT_HANDOVER_FACTOR = 0.5
CONCURRENCY_MARGIN = 1.5


def oracle_population(count, rng):
    return [
        VmuProfile(
            vmu_id=f"vmu-{i}",
            data_size_mb=float(rng.uniform(*constants.VT_DATA_SIZE_RANGE_MB)),
            immersion_coef=float(rng.uniform(*constants.IMMERSION_COEF_RANGE)),
        )
        for i in range(count)
    ]


def oracle_grid(spec):
    """A Manhattan road grid: each junction's position, and per junction
    its out-roads as ``(neighbour, length)``. A road joins each junction
    to its right and lower neighbours, in both directions, and is as long
    as the distance between its ends."""
    position = {
        f"g{r}-{c}": (float(c * spec.block_m), float(r * spec.block_m))
        for r in range(spec.rows)
        for c in range(spec.cols)
    }
    roads = {junction: [] for junction in position}
    for r in range(spec.rows):
        for c in range(spec.cols):
            start = f"g{r}-{c}"
            for end in (f"g{r}-{c + 1}", f"g{r + 1}-{c}"):
                if end in position:
                    (ax, ay), (bx, by) = position[start], position[end]
                    length = math.hypot(bx - ax, by - ay)
                    roads[start].append((end, length))
                    roads[end].append((start, length))
    return position, roads


def oracle_nearest_neighbor(roads, junction):
    best = None
    for neighbor, length in roads[junction]:
        key = (length, neighbor)
        if best is None or key < best:
            best = key
    return best[1], best[0]


@functools.lru_cache(maxsize=None)
def oracle_city(spec):
    """The graph-based build of every market of ``spec``, plus per market
    the chosen neighbour, its candidates' ids, and the coverage verdict."""
    position, roads = oracle_grid(spec)
    base_link = paper_link()
    markets, choices = [], []
    for index in range(spec.num_markets):
        junction = f"g{index // spec.cols}-{index % spec.cols}"
        neighbor, road_length = oracle_nearest_neighbor(roads, junction)
        rng = np.random.default_rng([spec.seed, index])
        population = oracle_population(
            int(rng.integers(1, spec.max_vmus + 1)), rng
        )
        vehicles = 1 + int(rng.poisson(spec.vehicles_per_cell))
        link = base_link.with_distance(road_length * float(rng.uniform(0.6, 1.0)))
        crossing_rate_hz = vehicles * spec.speed_limit_mps / road_length
        (rsu_x, rsu_y), (nx, ny) = position[junction], position[neighbor]
        covered = math.hypot(rsu_x - nx, rsu_y - ny) <= spec.coverage_radius
        if covered:
            crossing_rate_hz *= SOFT_HANDOVER_FACTOR
        # Little's law: rate·A migrations in flight, each needing D/(A·SE).
        in_flight = crossing_rate_hz * spec.target_aotm
        per_flow = float(np.mean([v.data_units for v in population])) / (
            spec.target_aotm * link.spectral_efficiency
        )
        capacity_natural = CONCURRENCY_MARGIN * in_flight * per_flow
        config = MarketConfig(
            max_bandwidth=capacity_natural * MarketConfig().bandwidth_report_scale
        )
        markets.append(StackelbergMarket(population, config=config, link=link))
        candidates = [n for n, _ in roads[junction]]
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
# A seed of more than one uint32 word keys a longer seed sequence.
SPEC_WIDE_SEED = CityGridSpec.for_markets(rows=7, cols=13, block_m=333.3,
                                          seed=2**64 + 3)
# integers(1, 2) draws no word, so the uniforms start at word 0.
SPEC_ONE_VMU = CityGridSpec.for_markets(rows=6, cols=7, max_vmus=1, seed=11)
# Below lam = 10 numpy's Poisson is the multiplication method, not PTRS.
SPEC_FEW_VEHICLES = CityGridSpec.for_markets(rows=6, cols=7,
                                             vehicles_per_cell=3.5, seed=12)
# lam = 10 is PTRS's boundary, where its log test meets loggam's x < 7.
SPEC_PTRS_EDGE = CityGridSpec.for_markets(rows=12, cols=13,
                                          vehicles_per_cell=10.0, seed=13)
ORACLE_SPECS = {
    "100x100": SPEC_100x100, "truncated": SPEC_TRUNCATED,
    "block0.1": SPEC_TINY_BLOCK, "soft": SPEC_SOFT,
    "max_vmus11": SPEC_MANY_VMUS, "on-circle": SPEC_ON_CIRCLE,
    "wide-seed": SPEC_WIDE_SEED, "max_vmus1": SPEC_ONE_VMU,
    "vehicles3.5": SPEC_FEW_VEHICLES, "vehicles10": SPEC_PTRS_EDGE,
}


@pytest.mark.parametrize(
    "spec", ORACLE_SPECS.values(), ids=ORACLE_SPECS.keys()
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


STACK_ARRAYS = (
    "counts", "mask", "immersion_coefs", "data_units",
    "spectral_efficiencies", "unit_costs", "max_prices",
    "capacities_natural", "_enforce", "_effective_caps",
)
EQUILIBRIUM_ARRAYS = (
    "prices", "demands", "msp_utilities", "vmu_utilities",
    "capacity_binding", "price_cap_binding", "feasible", "mask", "counts",
    "unit_costs",
)


def assert_stacks_bitwise_equal(got, expected):
    for name in STACK_ARRAYS:
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got._ragged == expected._ragged
    assert got._fullmask == expected._fullmask
    solved, reference = got.equilibria_stacked(), expected.equilibria_stacked()
    for name in EQUILIBRIUM_ARRAYS:
        a, b = getattr(solved, name), getattr(reference, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize(
    "spec", ORACLE_SPECS.values(), ids=ORACLE_SPECS.keys()
)
def test_column_stack_matches_graph_oracle(spec):
    expected, _ = oracle_city(spec)
    stack = MarketStack.from_columns(city_columns(spec))
    assert_stacks_bitwise_equal(stack, MarketStack(expected))
    # The lazily built members are the oracle's objects, bit for bit.
    assert_markets_bitwise_equal(stack.markets, expected)


@pytest.mark.parametrize(
    "start, stop",
    [(99, 100), (9900, 10000), (95, 105)],
    ids=["corner", "last-row", "crosses-row"],
)
def test_column_slices_match_graph_oracle(start, stop):
    expected, _ = oracle_city(SPEC_100x100)
    stack = MarketStack.from_columns(city_columns(SPEC_100x100, start, stop))
    assert_stacks_bitwise_equal(stack, MarketStack(expected[start:stop]))
    assert_markets_bitwise_equal(stack.markets, expected[start:stop])


def test_empty_column_slice_stacks_like_no_markets():
    columns = city_columns(SPEC_100x100, 0, 0)
    assert len(columns) == 0
    with pytest.raises(ConfigurationError, match="at least one market"):
        MarketStack.from_columns(columns)
    with pytest.raises(ConfigurationError, match="at least one market"):
        MarketStack([])


@pytest.mark.parametrize(
    "start, stop", [(0, 1), (99, 100), (95, 105), (4321, 4400)]
)
def test_slice_columns_equal_the_full_build_slice(start, stop):
    full, part = city_columns(SPEC_100x100), city_columns(SPEC_100x100, start, stop)
    offsets = np.concatenate([[0], np.cumsum(full.counts)])
    lo, hi = offsets[start], offsets[stop]
    for name in ("counts", "spectral_efficiencies", "max_bandwidths",
                 "distances_m", "unit_costs", "max_prices",
                 "bandwidth_report_scales", "enforce_capacity"):
        assert getattr(part, name).tobytes() == (
            getattr(full, name)[start:stop].tobytes()
        ), name
    for name in ("immersion_coefs", "data_sizes_mb", "data_units"):
        assert getattr(part, name).tobytes() == (
            getattr(full, name)[lo:hi].tobytes()
        ), name


def test_population_means_are_per_market_np_mean():
    """The grouped mean reduces each market's own slice: bitwise
    ``np.mean`` on both sides of numpy's 8-wide pairwise boundary."""
    rng = np.random.default_rng(17)
    counts = rng.integers(1, 41, size=400)
    values = rng.uniform(1.0, 3.0, size=int(counts.sum()))
    offsets = np.concatenate([[0], np.cumsum(counts)])
    expected = np.array([
        float(np.mean(values[offsets[m]:offsets[m + 1]].tolist()))
        for m in range(len(counts))
    ])
    assert _population_means(values, counts).tobytes() == expected.tobytes()


def test_column_path_builds_no_market_objects(monkeypatch):
    """``run_city_chunk_job`` and ``MarketStack.from_columns`` over
    ``city_columns`` build no ``StackelbergMarket``, ``VmuProfile`` or
    ``LinkBudget``."""
    spec = CityGridSpec.for_markets(40, max_vmus=11, seed=4)
    expected = MarketStack(city_markets(spec))
    reference = expected.equilibria_stacked()

    def forbidden(*args, **kwargs):
        raise AssertionError("a per-market object was built")

    monkeypatch.setattr(StackelbergMarket, "__init__", forbidden)
    monkeypatch.setattr(VmuProfile, "__post_init__", forbidden)
    monkeypatch.setattr(LinkBudget, "__post_init__", forbidden)
    payload = {"spec": spec.to_payload(), "start": 0, "stop": spec.num_markets}
    cells = run_city_chunk_job(payload)
    grid = MarketStack.from_columns(city_columns(spec))
    monkeypatch.undo()

    assert cells["prices"].tobytes() == reference.prices.tobytes()
    assert cells["feasible"].tobytes() == reference.feasible.tobytes()
    assert_stacks_bitwise_equal(grid, expected)


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
    # SPEC_100x100's vehicle counts run PTRS: some first tries take its
    # log test, and some draw again at once, so the pending lanes step
    # their own streams. (The generator fallback, which no city lane
    # reaches, is pinned in tests/test_utils_rng.py.)
    tries = first_ptrs_tries(SPEC_100x100)
    assert any(not t.fast and not t.retry for t in tries)
    assert any(t.retry and not t.fast for t in tries)
    # At lam = 10 some log tests evaluate loggam(k + 1) below 7, its
    # shifted branch.
    tries = first_ptrs_tries(SPEC_PTRS_EDGE)
    assert any(not t.fast and not t.retry and t.k + 1 < 7 for t in tries)
    assert SPEC_FEW_VEHICLES.vehicles_per_cell < 10.0
    assert SPEC_ONE_VMU.max_vmus == 1


def first_ptrs_tries(spec):
    return [
        ptrs_first_try(spec.seed, index, spec.max_vmus, spec.vehicles_per_cell)
        for index in range(spec.num_markets)
    ]


def test_slice_builds_no_road_graph():
    """Importing the experiments layer and building a ``city_markets``
    slice never loads networkx: no road graph exists on that path."""
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    script = (
        "import sys\n"
        "import repro.experiments\n"
        "from repro.mobility.citygrid import CityGridSpec, city_markets\n"
        "spec = CityGridSpec.for_markets(10000, seed=0)\n"
        "assert len(city_markets(spec, 5000, 5001)) == 1\n"
        "assert 'networkx' not in sys.modules, 'networkx was imported'\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr


FLOAT_FIELDS = (
    "block_m", "coverage_radius_m", "speed_limit_mps", "vehicles_per_cell",
    "target_aotm",
)
DEGENERATE_FLOATS = {
    f"{field}-{name}": (field, value, field)
    for field in FLOAT_FIELDS
    for name, value in (("nan", math.nan), ("inf", math.inf), ("zero", 0.0),
                        ("negative", -1.0))
}
# A vehicle stream numpy cannot draw: its Poisson limit is ~9.22e18.
DEGENERATE_FLOATS["vehicles_per_cell-past-poisson-limit"] = (
    "vehicles_per_cell", 1e20, r"vehicles_per_cell.*9\.22\d*e\+18.*Poisson",
)


@pytest.mark.parametrize(
    "field, value, message", DEGENERATE_FLOATS.values(),
    ids=DEGENERATE_FLOATS.keys(),
)
def test_spec_rejects_degenerate_floats(field, value, message):
    with pytest.raises(ConfigurationError, match=message):
        CityGridSpec(num_markets=4, rows=2, cols=2, **{field: value})
    payload = CityGridSpec(num_markets=4, rows=2, cols=2).to_payload()
    payload[field] = value
    with pytest.raises(ConfigurationError, match=message):
        CityGridSpec.from_payload(payload)


def test_spec_takes_numpys_largest_poisson_lam():
    spec = CityGridSpec(num_markets=4, rows=2, cols=2,
                        vehicles_per_cell=POISSON_LAM_MAX)
    columns = city_columns(spec)
    assert columns.counts.tolist() == [
        int(np.random.default_rng([0, i]).integers(1, 7)) for i in range(4)
    ]


INT_FIELDS = ("num_markets", "rows", "cols", "max_vmus", "seed")


@pytest.mark.parametrize(
    "value", [2.5, 4.0, True, "4", None], ids=["float", "integral-float", "bool", "str", "none"]
)
@pytest.mark.parametrize("field", INT_FIELDS)
def test_spec_rejects_non_int_fields(field, value):
    with pytest.raises(ConfigurationError, match=field):
        CityGridSpec(**{"num_markets": 4, "rows": 2, "cols": 2, field: value})
    payload = CityGridSpec(num_markets=4, rows=2, cols=2).to_payload()
    payload[field] = value
    with pytest.raises(ConfigurationError, match=field):
        CityGridSpec.from_payload(payload)


def test_spec_rejects_a_negative_seed():
    with pytest.raises(ConfigurationError, match="seed"):
        CityGridSpec(num_markets=4, rows=2, cols=2, seed=-1)
    payload = CityGridSpec(num_markets=4, rows=2, cols=2).to_payload()
    payload["seed"] = -1
    with pytest.raises(ConfigurationError, match="seed"):
        CityGridSpec.from_payload(payload)


def test_spec_rejects_more_markets_than_uint32_indices():
    """Each market index keys its generator as one uint32 word, so a spec
    with more than ``2**32`` markets is refused before any grid exists."""
    side = 2**16 + 1
    with pytest.raises(ConfigurationError, match="num_markets"):
        CityGridSpec(num_markets=2**32 + 1, rows=side, cols=side)
    spec = CityGridSpec(num_markets=2**32, rows=side, cols=side, seed=1)
    assert spec.num_markets == 2**32
    # The last index still keys its own stream.
    (last,) = city_columns(spec, 2**32 - 1).counts.tolist()
    rng = np.random.default_rng([1, 2**32 - 1])
    assert last == int(rng.integers(1, spec.max_vmus + 1))


def test_spec_rejects_a_market_wider_than_one_solve_chunk():
    """A ``max_vmus`` whose single market overflows the solve's chunk
    budget is refused at construction, before numpy's bare bounds error
    (``2**63``) or a draw of ~2**41 doubles (``2**40``)."""
    largest = 680
    assert solve_scratch_bytes_per_market(largest) <= DEFAULT_CHUNK_BYTES
    assert solve_scratch_bytes_per_market(largest + 1) > DEFAULT_CHUNK_BYTES
    for value in (2**63, 2**40, largest + 1):
        with pytest.raises(ConfigurationError, match="max_vmus"):
            CityGridSpec(num_markets=4, rows=2, cols=2, max_vmus=value)
        payload = CityGridSpec(num_markets=4, rows=2, cols=2).to_payload()
        payload["max_vmus"] = value
        with pytest.raises(ConfigurationError, match="max_vmus"):
            CityGridSpec.from_payload(payload)
    spec = CityGridSpec(num_markets=4, rows=2, cols=2, max_vmus=largest)
    solved = MarketStack.from_columns(city_columns(spec)).equilibria_stacked()
    assert solved.feasible.all()
    assert solved.demands.shape[1] <= largest


def test_a_link_whose_spectral_efficiency_rounds_to_zero_is_rejected():
    """Roads ~1e306 m long pass the spec, but their links' log2(1 + SNR)
    rounds to 0: the columns raise the typed error before the capacity
    sizing divides by it, with no numpy warning on the way."""
    spec = CityGridSpec(num_markets=4, rows=2, cols=2, block_m=1e306)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="spectral efficiency"):
            city_columns(spec)
        with pytest.raises(ConfigurationError, match="spectral efficiency"):
            city_columns(spec, 2, 4)
        with pytest.raises(ConfigurationError, match="spectral efficiency"):
            run_experiment("city_sweep", {"m": 4, "block_m": 1e306})


def test_valid_spec_payload_is_unchanged():
    spec = CityGridSpec.for_markets(10000, seed=7)
    assert spec.to_payload() == {
        "num_markets": 10000, "rows": 100, "cols": 100, "block_m": 400.0,
        "coverage_radius_m": None, "speed_limit_mps": 13.9,
        "vehicles_per_cell": 400.0, "max_vmus": 6, "target_aotm": 0.05,
        "seed": 7,
    }
    assert CityGridSpec.from_payload(spec.to_payload()) == spec
