"""Channel/link tests: the paper's radio numbers and model behaviour."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.channel.link import LinkBudget, RsuLink, paper_link
from repro.channel.pathloss import FreeSpacePathLoss, LogDistancePathLoss
from repro.errors import ConfigurationError


class TestPaperLink:
    def test_spectral_efficiency_matches_paper(self):
        # log2(1 + 4e11) ≈ 38.54 bit/s/Hz with the Sec. V-A parameters.
        assert paper_link().spectral_efficiency == pytest.approx(38.54, abs=0.01)

    def test_snr_value(self):
        budget = paper_link().budget
        snr = budget.received_power_w / budget.noise_power_w
        assert snr == pytest.approx(4e11, rel=1e-9)

    def test_snr_db(self):
        budget = paper_link().budget
        snr_db = 10.0 * math.log10(budget.received_power_w / budget.noise_power_w)
        assert snr_db == pytest.approx(116.02, abs=0.01)

    def test_received_power(self):
        # 10 W * 0.01 * 500^-2 = 4e-7 W.
        assert paper_link().budget.received_power_w == pytest.approx(4e-7)

    def test_transmission_rate_linear_in_bandwidth(self):
        link = paper_link()
        assert link.transmission_rate(2.0) == pytest.approx(
            2.0 * link.spectral_efficiency
        )

    def test_transfer_time_is_eq1(self):
        link = paper_link()
        # A = D / (b SE).
        assert link.transfer_time(2.0, 0.5) == pytest.approx(
            2.0 / (0.5 * link.spectral_efficiency)
        )

    def test_zero_bandwidth_gives_infinite_aotm(self):
        assert paper_link().transfer_time(1.0, 0.0) == math.inf

    def test_negative_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            paper_link().transmission_rate(-1.0)


class TestLinkVariants:
    def test_with_distance_farther_is_worse(self):
        near = paper_link()
        far = near.with_distance(1000.0)
        assert far.spectral_efficiency < near.spectral_efficiency
        assert far.budget.distance_m == 1000.0

    def test_with_fading_gain(self):
        base = paper_link()
        boosted = base.with_fading_gain(2.0)
        assert boosted.spectral_efficiency > base.spectral_efficiency
        faded = base.with_fading_gain(0.1)
        assert faded.spectral_efficiency < base.spectral_efficiency

    @given(st.floats(min_value=10.0, max_value=10000.0))
    def test_se_monotone_decreasing_in_distance(self, distance):
        link = paper_link()
        closer = link.with_distance(distance)
        farther = link.with_distance(distance * 2.0)
        assert farther.spectral_efficiency < closer.spectral_efficiency


class TestLinkBudgetValidation:
    def test_rejects_nonpositive_power(self):
        with pytest.raises(ConfigurationError):
            LinkBudget(
                transmit_power_w=0.0,
                noise_power_w=1e-18,
                path_loss=LogDistancePathLoss(0.01, 2.0),
                distance_m=500.0,
            )

    def test_rejects_nonpositive_fading(self):
        with pytest.raises(ConfigurationError):
            LinkBudget(
                transmit_power_w=1.0,
                noise_power_w=1e-18,
                path_loss=LogDistancePathLoss(0.01, 2.0),
                distance_m=500.0,
                fading_gain=0.0,
            )


class TestPathLossModels:
    def test_log_distance_anchor(self):
        model = LogDistancePathLoss(reference_gain=0.01, exponent=2.0)
        assert model.gain(500.0) == pytest.approx(0.01 / 250_000.0)

    def test_log_distance_gain_db(self):
        model = LogDistancePathLoss(reference_gain=1.0, exponent=2.0)
        assert 10.0 * math.log10(model.gain(10.0)) == pytest.approx(-20.0)

    def test_log_distance_rejects_bad_params(self):
        with pytest.raises(ConfigurationError):
            LogDistancePathLoss(reference_gain=0.0, exponent=2.0)
        with pytest.raises(ConfigurationError):
            LogDistancePathLoss(reference_gain=1.0, exponent=-1.0)

    def test_log_distance_rejects_zero_distance(self):
        model = LogDistancePathLoss(reference_gain=0.01, exponent=2.0)
        with pytest.raises(ConfigurationError):
            model.gain(0.0)

    def test_free_space_friis(self):
        model = FreeSpacePathLoss(frequency_hz=2.4e9)
        wavelength = 299_792_458.0 / 2.4e9
        expected = (wavelength / (4.0 * math.pi * 100.0)) ** 2
        assert model.gain(100.0) == pytest.approx(expected)

    @given(st.floats(min_value=1.0, max_value=1e5))
    def test_free_space_inverse_square(self, distance):
        model = FreeSpacePathLoss(frequency_hz=5.9e9)  # DSRC band
        assert model.gain(distance) / model.gain(2.0 * distance) == pytest.approx(
            4.0, rel=1e-9
        )
