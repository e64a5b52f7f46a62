"""Shared utilities: RNG streams, validation, tables, serialization."""

from repro.util.rng import RngFactory, derive_seed, make_rng
from repro.util.tables import Table, format_float
from repro.util.validation import (
    require,
    require_in_range,
    require_positive,
)

__all__ = [
    "RngFactory",
    "derive_seed",
    "make_rng",
    "Table",
    "format_float",
    "require",
    "require_in_range",
    "require_positive",
]
