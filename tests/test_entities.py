"""Entity tests: VT payloads/blocks, RSUs, the MSP ledger, populations."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.entities.msp import MetaverseServiceProvider
from repro.entities.rsu import EdgeServer, RoadsideUnit
from repro.entities.vmu import (
    VmuProfile,
    paper_fig2_population,
    sample_population,
    uniform_population,
)
from repro.entities.vt import VehicularTwin, VtPayload
from repro.errors import ConfigurationError, MigrationError


class TestVtPayload:
    def test_total(self):
        payload = VtPayload(config_mb=10.0, memory_mb=80.0, realtime_mb=10.0)
        assert payload.total_mb == 100.0

    def test_with_total_default_split(self):
        payload = VtPayload.with_total(200.0)
        assert payload.memory_mb == pytest.approx(160.0)
        assert payload.config_mb == pytest.approx(20.0)
        assert payload.total_mb == pytest.approx(200.0)

    def test_with_total_bad_fractions(self):
        with pytest.raises(ValueError):
            VtPayload.with_total(100.0, memory_fraction=0.9, config_fraction=0.2)

    def test_negative_component_rejected(self):
        with pytest.raises(ConfigurationError):
            VtPayload(config_mb=-1.0, memory_mb=0.0, realtime_mb=0.0)

    @given(st.floats(min_value=1.0, max_value=1e4))
    def test_with_total_conserves(self, total):
        assert VtPayload.with_total(total).total_mb == pytest.approx(total)


class TestVehicularTwin:
    def _twin(self, total=100.0):
        return VehicularTwin(
            vt_id="vt:x", vmu_id="x", payload=VtPayload.with_total(total)
        )

    def test_data_size(self):
        assert self._twin(150.0).data_size_mb == pytest.approx(150.0)

    def test_blocks_conserve_size(self):
        twin = self._twin(123.0)
        blocks = twin.blocks(block_size_mb=7.0)
        assert sum(b.size_mb for b in blocks) == pytest.approx(123.0)

    def test_blocks_sequential(self):
        blocks = self._twin().blocks(10.0)
        assert [b.sequence for b in blocks] == list(range(len(blocks)))

    def test_blocks_respect_max_size(self):
        blocks = self._twin(100.0).blocks(8.0)
        assert all(b.size_mb <= 8.0 + 1e-12 for b in blocks)

    def test_blocks_ordered_by_kind(self):
        kinds = [b.kind for b in self._twin().blocks(5.0)]
        # config blocks come before memory blocks before realtime blocks
        assert kinds == sorted(
            kinds, key=lambda k: {"config": 0, "memory": 1, "realtime": 2}[k]
        )

    def test_record_migration(self):
        twin = self._twin()
        twin.record_migration("rsu-9")
        assert twin.host_rsu_id == "rsu-9"
        assert twin.migration_count == 1

    @given(st.floats(min_value=0.5, max_value=50.0))
    def test_blocks_conservation_property(self, block_size):
        twin = self._twin(217.0)
        blocks = twin.blocks(block_size)
        assert sum(b.size_mb for b in blocks) == pytest.approx(217.0)


class TestEdgeServerAndRsu:
    def test_admit_and_evict(self):
        edge = EdgeServer(storage_mb=100.0, compute_units=4.0)
        edge.admit(60.0)
        assert edge.free_storage_mb == pytest.approx(40.0)
        edge.evict(60.0)
        assert edge.free_storage_mb == pytest.approx(100.0)

    def test_storage_exhaustion(self):
        edge = EdgeServer(storage_mb=100.0, compute_units=4.0)
        with pytest.raises(MigrationError, match="storage"):
            edge.admit(150.0)

    def test_compute_exhaustion(self):
        edge = EdgeServer(storage_mb=1000.0, compute_units=1.0)
        edge.admit(1.0, compute=1.0)
        with pytest.raises(MigrationError, match="compute"):
            edge.admit(1.0, compute=0.5)

    def test_evict_never_negative(self):
        edge = EdgeServer(storage_mb=100.0, compute_units=4.0)
        edge.evict(50.0)
        assert edge.free_storage_mb == pytest.approx(100.0)

    def test_rsu_coverage(self):
        rsu = RoadsideUnit("r", position_m=(0.0, 0.0), coverage_radius_m=100.0)
        assert rsu.covers((60.0, 80.0))  # distance exactly 100
        assert not rsu.covers((60.0, 80.1))

    def test_rsu_distance(self):
        rsu = RoadsideUnit("r", position_m=(3.0, 0.0), coverage_radius_m=10.0)
        assert rsu.distance_to((0.0, 4.0)) == pytest.approx(5.0)

    def test_rsu_host_unhost(self):
        rsu = RoadsideUnit("r", position_m=(0.0, 0.0), coverage_radius_m=100.0)
        rsu.host("vt:1", 100.0)
        assert "vt:1" in rsu.hosted_vt_ids
        with pytest.raises(MigrationError):
            rsu.host("vt:1", 100.0)
        rsu.unhost("vt:1", 100.0)
        assert "vt:1" not in rsu.hosted_vt_ids

    def test_unhost_unknown_rejected(self):
        rsu = RoadsideUnit("r", position_m=(0.0, 0.0), coverage_radius_m=100.0)
        with pytest.raises(MigrationError):
            rsu.unhost("vt:ghost", 10.0)


class TestMsp:
    def test_ledger_accounting(self):
        msp = MetaverseServiceProvider(unit_cost=5.0, max_price=50.0)
        msp.record_sale("vmu-0", bandwidth=2.0, unit_price=25.0)
        msp.record_sale("vmu-1", bandwidth=1.0, unit_price=25.0)
        assert msp.total_bandwidth_sold == pytest.approx(3.0)
        assert msp.total_revenue == pytest.approx(75.0)
        assert msp.total_cost == pytest.approx(15.0)
        assert msp.profit == pytest.approx(60.0)  # Eq. (4)

    def test_clear_ledger(self):
        msp = MetaverseServiceProvider()
        msp.record_sale("a", 1.0, 10.0)
        msp.clear_ledger()
        assert msp.profit == 0.0

    def test_price_validation(self):
        msp = MetaverseServiceProvider(unit_cost=5.0, max_price=50.0)
        with pytest.raises(Exception):
            msp.record_sale("a", 1.0, 4.0)  # below cost
        with pytest.raises(Exception):
            msp.record_sale("a", 1.0, 51.0)  # above cap

    def test_clamp_price(self):
        msp = MetaverseServiceProvider(unit_cost=5.0, max_price=50.0)
        assert msp.clamp_price(1.0) == 5.0
        assert msp.clamp_price(99.0) == 50.0
        assert msp.clamp_price(20.0) == 20.0

    def test_cost_above_cap_rejected(self):
        with pytest.raises(ValueError):
            MetaverseServiceProvider(unit_cost=60.0, max_price=50.0)


class TestPopulations:
    def test_paper_fig2_population(self):
        vmus = paper_fig2_population()
        assert [v.data_size_mb for v in vmus] == [200.0, 100.0]
        assert [v.immersion_coef for v in vmus] == [5.0, 5.0]

    def test_data_units_conversion(self):
        assert paper_fig2_population()[0].data_units == 2.0

    def test_uniform_population(self):
        vmus = uniform_population(4)
        assert len(vmus) == 4
        assert all(v.data_size_mb == 100.0 for v in vmus)
        assert len({v.vmu_id for v in vmus}) == 4

    def test_sample_population_ranges(self):
        vmus = sample_population(50, seed=0)
        assert all(100.0 <= v.data_size_mb <= 300.0 for v in vmus)
        assert all(5.0 <= v.immersion_coef <= 20.0 for v in vmus)

    def test_sample_population_deterministic(self):
        a = sample_population(5, seed=3)
        b = sample_population(5, seed=3)
        assert [(v.data_size_mb, v.immersion_coef) for v in a] == [
            (v.data_size_mb, v.immersion_coef) for v in b
        ]

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            sample_population(0)
        with pytest.raises(ValueError):
            uniform_population(0)

    def test_profile_validation(self):
        with pytest.raises(ConfigurationError):
            VmuProfile("x", data_size_mb=0.0, immersion_coef=5.0)
        with pytest.raises(ConfigurationError):
            VmuProfile("x", data_size_mb=100.0, immersion_coef=-1.0)


def scalar_uniform_population(count, rng, data_range_mb, immersion_range):
    """The reference draw: two scalar ``rng.uniform`` calls per VMU."""
    return [
        VmuProfile(
            vmu_id=f"vmu-{i}",
            data_size_mb=float(rng.uniform(*data_range_mb)),
            immersion_coef=float(rng.uniform(*immersion_range)),
        )
        for i in range(count)
    ]


class TestOneDrawPopulation:
    RANGES = [
        ((100.0, 300.0), (5.0, 20.0)),
        ((1, 2), (7.25, 7.25)),
    ]

    @pytest.mark.parametrize("data_range_mb, immersion_range", RANGES)
    def test_bitwise_equal_to_scalar_uniform_draws(
        self, data_range_mb, immersion_range
    ):
        for seed in range(1000):
            count = 1 + seed % 12
            got_rng = np.random.default_rng(seed)
            ref_rng = np.random.default_rng(seed)
            got = sample_population(
                count, seed=got_rng, data_range_mb=data_range_mb,
                immersion_range=immersion_range,
            )
            ref = scalar_uniform_population(
                count, ref_rng, data_range_mb, immersion_range
            )
            assert [v.vmu_id for v in got] == [v.vmu_id for v in ref]
            assert [
                (v.data_size_mb.hex(), v.immersion_coef.hex()) for v in got
            ] == [(v.data_size_mb.hex(), v.immersion_coef.hex()) for v in ref]
            # Shared streams (e.g. a city market's later draws) continue
            # exactly where the scalar calls would have left them.
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state
            assert got_rng.poisson(400.0) == ref_rng.poisson(400.0)
            assert got_rng.uniform(0.6, 1.0) == ref_rng.uniform(0.6, 1.0)

    @pytest.mark.parametrize(
        "data_range_mb, immersion_range",
        [
            ((100.0, math.inf), (5.0, 20.0)),
            ((math.nan, 300.0), (5.0, 20.0)),
            ((100.0, 300.0), (-math.inf, math.inf)),
            ((100.0, 300.0), (5.0, math.nan)),
        ],
    )
    def test_non_finite_range_overflows_like_uniform(
        self, data_range_mb, immersion_range
    ):
        with pytest.raises(OverflowError):
            scalar_uniform_population(
                1, np.random.default_rng(0), data_range_mb, immersion_range
            )
        with pytest.raises(OverflowError):
            sample_population(
                1, seed=0, data_range_mb=data_range_mb,
                immersion_range=immersion_range,
            )
