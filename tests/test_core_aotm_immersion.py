"""AoTM metric and immersion-function tests (Eqs. 1-2).

Production code carries Eq. (1) as the link's transfer time
(:meth:`RsuLink.transfer_time`) and the immersion gain inside the follower
utility (the Eq. (2) kernel ``_vmu_utilities_rows``, whose gain at price 0
is ``α·ln(1 + b·SE/D)``). Both are checked here against the scalar
``aotm``/``immersion`` oracle of ``test_core_equilibrium_oracle``.
"""

import math

import numpy as np
import pytest
from game_oracle import numerical_derivative
from hypothesis import given
from hypothesis import strategies as st

from repro.channel.link import paper_link
from repro.core.utilities import _vmu_utilities_rows
from repro.entities.vmu import VmuProfile
from repro.errors import ConfigurationError

from test_core_equilibrium_oracle import aotm, immersion

LINK = paper_link()
SE = LINK.spectral_efficiency


def gain(alpha, data, bandwidth):
    """The immersion ``G(b)`` inside production Eq. (2) (price 0)."""
    utilities = _vmu_utilities_rows(
        np.array([[alpha]]),
        np.array([[data]]),
        np.array([[bandwidth]]),
        np.array([0.0]),
        np.array([SE]),
    )
    return float(utilities[0, 0])


def bandwidth_at_age(data, age):
    """The bandwidth whose Eq. (1) AoTM is ``age``."""
    return data / (age * SE)


class TestAotm:
    def test_eq1_value(self):
        # A = D / (b SE).
        assert LINK.transfer_time(2.0, 0.5) == pytest.approx(2.0 / (0.5 * SE))
        assert LINK.transfer_time(2.0, 0.5) == aotm(2.0, 0.5, SE)

    def test_zero_bandwidth_infinite(self):
        assert LINK.transfer_time(1.0, 0.0) == math.inf

    def test_zero_data_zero_aotm(self):
        assert LINK.transfer_time(0.0, 1.0) == 0.0

    def test_aotm_mb_uses_100mb_units(self):
        data = VmuProfile("v", data_size_mb=200.0, immersion_coef=5.0).data_units
        assert LINK.transfer_time(data, 0.5) == pytest.approx(aotm(2.0, 0.5, SE))

    def test_aotm_mb_custom_link(self):
        far = LINK.with_distance(1000.0)
        assert far.transfer_time(1.0, 0.5) > LINK.transfer_time(1.0, 0.5)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            LINK.transfer_time(-1.0, 1.0)
        with pytest.raises(ConfigurationError):
            LINK.transfer_time(1.0, -1.0)

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.01, max_value=10.0),
    )
    def test_monotone(self, data, bandwidth):
        # More data -> staler; more bandwidth -> fresher.
        aotm_at = LINK.transfer_time
        assert aotm_at(data * 2.0, bandwidth) > aotm_at(data, bandwidth)
        assert aotm_at(data, bandwidth * 2.0) < aotm_at(data, bandwidth)

    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.01, max_value=5.0),
    )
    def test_bandwidth_inversion_round_trip(self, data, target):
        bandwidth = bandwidth_at_age(data, target)
        assert LINK.transfer_time(data, bandwidth) == pytest.approx(
            target, rel=1e-12
        )


class TestFreshnessGain:
    """``ln(1 + 1/A)``: the immersion gain of a unit-coefficient VMU."""

    def test_zero_at_infinite_age(self):
        assert gain(1.0, 2.0, 0.0) == 0.0
        assert immersion(1.0, math.inf) == 0.0

    def test_ln2_at_unit_age(self):
        assert gain(1.0, 2.0, bandwidth_at_age(2.0, 1.0)) == pytest.approx(
            math.log(2.0)
        )

    def test_monotone_decreasing(self):
        ages = (0.5, 1.0, 2.0)
        gains = [gain(1.0, 2.0, bandwidth_at_age(2.0, age)) for age in ages]
        assert gains[0] > gains[1] > gains[2]

    def test_nonpositive_rejected(self):
        # A = 0 needs a zero-size twin, which the VMU profile rejects.
        with pytest.raises(ConfigurationError):
            VmuProfile("v", data_size_mb=0.0, immersion_coef=1.0)


class TestImmersion:
    def test_scales_with_alpha(self):
        assert gain(10.0, 2.0, 0.5) == pytest.approx(2.0 * gain(5.0, 2.0, 0.5))

    def test_from_bandwidth_closed_form(self):
        # G(b) = α ln(1 + b SE / D) = α ln(1 + 1/A).
        expected = 5.0 * math.log1p(0.5 * SE / 2.0)
        assert gain(5.0, 2.0, 0.5) == pytest.approx(expected)
        assert gain(5.0, 2.0, 0.5) == pytest.approx(
            immersion(5.0, aotm(2.0, 0.5, SE))
        )

    def test_zero_bandwidth_zero_immersion(self):
        assert gain(5.0, 2.0, 0.0) == 0.0

    def test_marginal_is_derivative(self):
        # dG/db = α SE / (D + b SE), the follower's marginal benefit.
        for b in (0.05, 0.2, 1.0):
            numeric = numerical_derivative(lambda x: gain(5.0, 2.0, x), b)
            analytic = 5.0 * SE / (2.0 + b * SE)
            assert analytic == pytest.approx(numeric, rel=1e-5)

    def test_marginal_decreasing(self):
        # Diminishing returns: d^2 G / db^2 < 0.
        m1 = numerical_derivative(lambda x: gain(5.0, 2.0, x), 0.1)
        m2 = numerical_derivative(lambda x: gain(5.0, 2.0, x), 0.5)
        assert m2 < m1

    @given(
        st.floats(min_value=1.0, max_value=30.0),
        st.floats(min_value=0.5, max_value=5.0),
        st.floats(min_value=0.001, max_value=5.0),
    )
    def test_immersion_positive_and_increasing(self, alpha, data, bandwidth):
        low = gain(alpha, data, bandwidth)
        high = gain(alpha, data, bandwidth * 1.5)
        assert 0.0 < low < high
