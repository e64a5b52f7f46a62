"""Small argument-validation helpers used across the library.

These keep constructors short and produce uniform, readable error messages.
All raise :class:`repro.errors.ConfigurationError` on failure so user code
has one exception type to handle for bad parameters.
"""

from __future__ import annotations

from numbers import Real
from typing import Any, Optional

from repro.errors import ConfigurationError

# Annotations use ``float`` (PEP 484 numeric tower: ints are accepted);
# runtime checks use ``numbers.Real`` so numpy scalars also pass.


def require(condition: bool, message: str) -> None:
    """Raise ``ConfigurationError(message)`` unless ``condition`` holds."""
    if not condition:
        raise ConfigurationError(message)


def require_positive(value: float, name: str, strict: bool = True) -> float:
    """Check that a number is > 0 (or >= 0 when ``strict=False``)."""
    if not isinstance(value, Real):
        raise ConfigurationError(f"{name} must be a number, got {type(value).__name__}")
    if strict and not value > 0:
        raise ConfigurationError(f"{name} must be > 0, got {value}")
    if not strict and not value >= 0:
        raise ConfigurationError(f"{name} must be >= 0, got {value}")
    return value


def require_in_range(
    value: float,
    name: str,
    low: Optional[float] = None,
    high: Optional[float] = None,
    low_inclusive: bool = True,
    high_inclusive: bool = True,
) -> float:
    """Check that ``low <= value <= high`` with configurable open ends.
    NaN is in no range: it compares false with every bound."""
    if not isinstance(value, Real):
        raise ConfigurationError(f"{name} must be a number, got {type(value).__name__}")
    if value != value:
        raise ConfigurationError(f"{name} must not be NaN")
    if low is not None:
        if low_inclusive and value < low:
            raise ConfigurationError(f"{name} must be >= {low}, got {value}")
        if not low_inclusive and value <= low:
            raise ConfigurationError(f"{name} must be > {low}, got {value}")
    if high is not None:
        if high_inclusive and value > high:
            raise ConfigurationError(f"{name} must be <= {high}, got {value}")
        if not high_inclusive and value >= high:
            raise ConfigurationError(f"{name} must be < {high}, got {value}")
    return value


def require_int_in_range(
    value: Any,
    name: str,
    low: Optional[int] = None,
    high: Optional[int] = None,
) -> int:
    """Check that ``value`` is an integer within ``[low, high]``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(
            f"{name} must be an integer, got {type(value).__name__}"
        )
    require_in_range(value, name, low=low, high=high)
    return value
