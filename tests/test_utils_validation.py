"""Validation-helper tests: acceptance, rejection, and message content."""

import math

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.utils import validation as v


class TestRequireFinite:
    def test_accepts_and_returns_float(self):
        assert v.require_finite("x", 3) == 3.0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ConfigurationError, match="x"):
            v.require_finite("x", bad)


class TestRequirePositive:
    def test_accepts(self):
        assert v.require_positive("x", 0.5) == 0.5

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan])
    def test_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            v.require_positive("x", bad)

    def test_message_names_argument(self):
        with pytest.raises(ConfigurationError, match="bandwidth"):
            v.require_positive("bandwidth", -2.0)


class TestRequireNonNegative:
    def test_accepts_zero(self):
        assert v.require_non_negative("x", 0.0) == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            v.require_non_negative("x", -1e-9)


class TestRequireInRange:
    def test_inclusive_bounds_accepted(self):
        assert v.require_in_range("p", 5.0, 5.0, 50.0) == 5.0
        assert v.require_in_range("p", 50.0, 5.0, 50.0) == 50.0

    def test_exclusive_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            v.require_in_range("p", 5.0, 5.0, 50.0, inclusive=False)

    def test_outside_rejected(self):
        with pytest.raises(ConfigurationError):
            v.require_in_range("p", 51.0, 5.0, 50.0)

    def test_message_shows_bounds(self):
        with pytest.raises(ConfigurationError, match=r"\[5.0, 50.0\]"):
            v.require_in_range("p", 0.0, 5.0, 50.0)


class TestRequirePositiveInt:
    def test_accepts(self):
        assert v.require_positive_int("n", 3) == 3

    @pytest.mark.parametrize("bad", [0, -1, 2.0, True])
    def test_rejects(self, bad):
        with pytest.raises(ConfigurationError):
            v.require_positive_int("n", bad)


class TestRequireIndex:
    @pytest.mark.parametrize("good", [0, 2, np.int64(1), np.uint8(2)])
    def test_accepts_and_returns_int(self, good):
        index = v.require_index("row", good, 3)
        assert index == good and type(index) is int

    @pytest.mark.parametrize("bad", [3, -1, 2.5, 1.0, True, False, "1", None])
    def test_rejects(self, bad):
        with pytest.raises(ConfigurationError, match="row"):
            v.require_index("row", bad, 3)


class TestRequireProbability:
    def test_bounds(self):
        assert v.require_probability("eps", 0.0) == 0.0
        assert v.require_probability("eps", 1.0) == 1.0

    def test_rejects_above_one(self):
        with pytest.raises(ConfigurationError):
            v.require_probability("eps", 1.01)
