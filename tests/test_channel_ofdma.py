"""Proportional rationing against ``B_max``: the ``_rationing_rows``
kernel, one market (``M = 1``) at a time."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.channel.ofdma import _rationing_rows


def ration(demands, capacity):
    """One market's demand row through the kernel, as a list."""
    rows = np.array([demands], dtype=float)
    granted = _rationing_rows(rows, np.array([capacity]), rows.sum(axis=-1))
    return granted[0].tolist()


class TestProportionalRationing:
    def test_within_capacity_unchanged(self):
        assert ration([1.0, 2.0], 10.0) == [1.0, 2.0]

    def test_scales_to_capacity(self):
        granted = ration([6.0, 2.0], 4.0)
        assert sum(granted) == pytest.approx(4.0)
        assert granted[0] / granted[1] == pytest.approx(3.0)

    def test_zero_demands(self):
        assert ration([0.0, 0.0], 5.0) == [0.0, 0.0]

    @given(
        st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=10),
        st.floats(min_value=0.1, max_value=50.0),
    )
    def test_properties(self, demands, capacity):
        granted = ration(demands, capacity)
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
