"""Proportional rationing against ``B_max``: properties and input checks."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.channel.ofdma import proportional_rationing
from repro.errors import AllocationError, ConfigurationError


class TestProportionalRationing:
    def test_within_capacity_unchanged(self):
        assert proportional_rationing([1.0, 2.0], 10.0) == [1.0, 2.0]

    def test_scales_to_capacity(self):
        granted = proportional_rationing([6.0, 2.0], 4.0)
        assert sum(granted) == pytest.approx(4.0)
        assert granted[0] / granted[1] == pytest.approx(3.0)

    def test_zero_demands(self):
        assert proportional_rationing([0.0, 0.0], 5.0) == [0.0, 0.0]

    def test_negative_demand_rejected(self):
        with pytest.raises(AllocationError):
            proportional_rationing([-1.0, 2.0], 5.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_demand_rejected(self, bad):
        # NaN slips past a ``< 0`` check; it must not come back granted.
        with pytest.raises(AllocationError, match="finite"):
            proportional_rationing([bad, 1.0], 2.0)
        with pytest.raises(AllocationError, match="finite"):
            proportional_rationing(np.array([[1.0, 1.0], [bad, 1.0]]), 2.0)

    def test_nonpositive_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            proportional_rationing([1.0], 0.0)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=10),
        st.floats(min_value=0.1, max_value=50.0),
    )
    def test_properties(self, demands, capacity):
        granted = proportional_rationing(demands, capacity)
        # never exceeds capacity (up to float noise)
        assert sum(granted) <= capacity * (1.0 + 1e-9) or sum(demands) <= capacity
        # never grants more than demanded
        for d, g in zip(demands, granted):
            assert g <= d * (1.0 + 1e-12)
        # preserves ratios
        for (d1, g1) in zip(demands, granted):
            for (d2, g2) in zip(demands, granted):
                if d1 > 0 and d2 > 0:
                    assert g1 * d2 == pytest.approx(g2 * d1, rel=1e-9)
