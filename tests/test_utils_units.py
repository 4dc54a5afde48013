"""Unit-conversion tests: exact anchors and error paths."""

import math

import pytest

from repro.errors import UnitError
from repro.utils import units


class TestDbConversions:
    def test_zero_db_is_unity(self):
        assert units.db_to_linear(0.0) == 1.0

    def test_minus_20_db(self):
        assert units.db_to_linear(-20.0) == pytest.approx(0.01)

    def test_plus_30_db(self):
        assert units.db_to_linear(30.0) == pytest.approx(1000.0)


class TestDbmConversions:
    def test_paper_transmit_power(self):
        # ρ = 40 dBm = 10 W (paper Sec. V-A).
        assert units.dbm_to_watts(40.0) == pytest.approx(10.0)

    def test_paper_noise_power(self):
        # N0 = -150 dBm = 1e-18 W.
        assert units.dbm_to_watts(-150.0) == pytest.approx(1e-18)

    def test_zero_dbm_is_one_milliwatt(self):
        assert units.dbm_to_milliwatts(0.0) == pytest.approx(1.0)


class TestDataConversions:
    def test_negative_data_rejected(self):
        with pytest.raises(UnitError):
            units.megabytes_to_data_units(-1.0)

    def test_paper_data_units(self):
        # The calibration of DESIGN.md §3: 200 MB -> 2.0 units.
        assert units.megabytes_to_data_units(200.0) == 2.0
        assert units.megabytes_to_data_units(100.0) == 1.0

    def test_custom_unit(self):
        assert units.megabytes_to_data_units(300.0, unit_mb=50.0) == 6.0

    def test_bad_unit_rejected(self):
        with pytest.raises(UnitError):
            units.megabytes_to_data_units(10.0, unit_mb=0.0)
        with pytest.raises(UnitError):
            units.megabytes_to_data_units(10.0, unit_mb=-1.0)


class TestBandwidthConversions:
    def test_snr_composition_matches_paper(self):
        """ρ h0 d^-ε / N0 with the paper's parameters is ~4e11 (116 dB)."""
        snr = (
            units.dbm_to_watts(40.0)
            * units.db_to_linear(-20.0)
            * 500.0**-2.0
            / units.dbm_to_watts(-150.0)
        )
        assert snr == pytest.approx(4e11, rel=1e-9)
        assert math.log2(1.0 + snr) == pytest.approx(38.54, abs=0.01)
