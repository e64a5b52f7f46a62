"""Tests for repro.util.validation helpers."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.util.validation import (
    require,
    require_in_range,
    require_int_in_range,
    require_positive,
)


class TestRequire:
    def test_passes_on_true(self):
        require(True, "never raised")

    def test_raises_on_false(self):
        with pytest.raises(ConfigurationError, match="boom"):
            require(False, "boom")


class TestRequirePositive:
    def test_strict_accepts_positive(self):
        assert require_positive(0.5, "x") == 0.5

    def test_strict_rejects_zero(self):
        with pytest.raises(ConfigurationError):
            require_positive(0, "x")

    def test_non_strict_accepts_zero(self):
        assert require_positive(0, "x", strict=False) == 0

    def test_rejects_non_number(self):
        with pytest.raises(ConfigurationError):
            require_positive("1", "x")


class TestRequireInRange:
    def test_inclusive_bounds(self):
        require_in_range(0.0, "x", low=0.0, high=1.0)
        require_in_range(1.0, "x", low=0.0, high=1.0)

    def test_exclusive_low(self):
        with pytest.raises(ConfigurationError):
            require_in_range(0.0, "x", low=0.0, low_inclusive=False)

    def test_exclusive_high(self):
        with pytest.raises(ConfigurationError):
            require_in_range(1.0, "x", high=1.0, high_inclusive=False)

    def test_below_low_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 2"):
            require_in_range(1, "x", low=2)

    def test_above_high_rejected(self):
        with pytest.raises(ConfigurationError, match="<= 5"):
            require_in_range(6, "x", high=5)

    @pytest.mark.parametrize(
        "bounds",
        [{}, {"low": 0.0}, {"high": 1.0}, {"low": 0.0, "high": 1.0, "low_inclusive": False}],
    )
    def test_nan_rejected_under_every_bound(self, bounds):
        with pytest.raises(ConfigurationError, match="NaN"):
            require_in_range(float("nan"), "x", **bounds)
        with pytest.raises(ConfigurationError, match="NaN"):
            require_in_range(np.float64("nan"), "x", **bounds)


class TestRequireIntInRange:
    def test_accepts_int(self):
        assert require_int_in_range(3, "x", low=1, high=5) == 3

    def test_rejects_bool(self):
        with pytest.raises(ConfigurationError):
            require_int_in_range(True, "x")

    def test_rejects_float(self):
        with pytest.raises(ConfigurationError):
            require_int_in_range(3.0, "x")
