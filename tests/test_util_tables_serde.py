"""Tests for table rendering and JSON serialization."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.util.serde import dump_json, dumps, load_json, to_jsonable
from repro.util.tables import Table, format_float


class TestFormatFloat:
    def test_int_has_no_decimal(self):
        assert format_float(12) == "12"

    def test_float_digits(self):
        assert format_float(1.23456, digits=2) == "1.23"

    def test_tiny_uses_scientific(self):
        assert "e" in format_float(1e-7)

    def test_huge_uses_scientific(self):
        assert "e" in format_float(5e8)

    def test_zero(self):
        assert format_float(0.0) == "0"

    def test_nan(self):
        assert format_float(float("nan")) == "nan"

    def test_bool_renders_as_word(self):
        assert format_float(True) == "True"

    def test_string_passthrough(self):
        assert format_float("abc") == "abc"


class TestTable:
    def test_render_alignment(self):
        table = Table(["a", "bb"], title="T")
        table.add_row([1, 2.5])
        rendered = table.render()
        assert rendered.splitlines()[0] == "T"
        assert "2.500" in rendered

    def test_row_width_mismatch_rejected(self):
        table = Table(["a"])
        with pytest.raises(ConfigurationError):
            table.add_row([1, 2])

    def test_no_columns_rejected(self):
        with pytest.raises(ConfigurationError):
            Table([])

    def test_records(self):
        table = Table(["x", "y"])
        table.add_row([1, 2])
        table.add_row([3, 4])
        assert table.n_rows == 2
        assert table.as_records()[1] == {"x": "3", "y": "4"}


@dataclasses.dataclass
class _Point:
    x: int
    y: float


class TestSerde:
    def test_numpy_scalars(self):
        assert to_jsonable(np.int64(3)) == 3
        assert to_jsonable(np.float64(2.5)) == 2.5
        assert to_jsonable(np.bool_(True)) is True

    def test_numpy_array(self):
        assert to_jsonable(np.arange(3)) == [0, 1, 2]

    def test_dataclass(self):
        assert to_jsonable(_Point(1, 2.0)) == {"x": 1, "y": 2.0}

    def test_nested_containers(self):
        obj = {"a": [np.int32(1), (2, 3)], "b": {4}}
        out = to_jsonable(obj)
        assert out["a"] == [1, [2, 3]]
        assert out["b"] == [4]

    def test_unserializable_rejected(self):
        with pytest.raises(ConfigurationError):
            to_jsonable(object())

    def test_roundtrip_file(self, tmp_path: Path):
        path = dump_json({"k": np.float64(1.5)}, tmp_path / "out.json")
        assert load_json(path) == {"k": 1.5}

    def test_dumps_sorted_keys(self):
        assert dumps({"b": 1, "a": 2}).index('"a"') < dumps({"b": 1, "a": 2}).index('"b"')
