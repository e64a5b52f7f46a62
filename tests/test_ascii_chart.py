"""Tests for the ASCII chart renderers."""


import pytest

from repro.errors import ConfigurationError
from repro.util.ascii_chart import bar_chart, line_chart


class TestLineChart:
    def test_basic_shape(self):
        chart = line_chart(
            [0, 1, 2, 3],
            {"a": [1.0, 2.0, 3.0, 4.0]},
            width=30,
            height=8,
            title="T",
        )
        lines = chart.splitlines()
        assert lines[0] == "T"
        # title + height rows + x axis + legend
        assert len(lines) == 1 + 8 + 2
        assert "* a" in lines[-1]

    def test_extremes_plotted_at_corners(self):
        chart = line_chart([0, 10], {"s": [0.0, 100.0]}, width=20, height=5)
        rows = chart.splitlines()
        assert rows[0].rstrip().endswith("*")  # max at top-right
        assert "*" in rows[4]  # min on the bottom data row

    def test_log_scale_spans_decades(self):
        chart = line_chart(
            [1, 2, 3],
            {"s": [0.001, 1.0, 1000.0]},
            log_y=True,
            height=7,
        )
        assert "log y" in chart
        # Midpoint value 1.0 should land mid-grid under log scaling.
        rows = chart.splitlines()
        mid_rows = rows[2:6]
        assert any("*" in row for row in mid_rows)

    def test_multiple_series_get_distinct_glyphs(self):
        chart = line_chart(
            [0, 1],
            {"first": [1, 2], "second": [2, 1]},
        )
        assert "* first" in chart and "o second" in chart
        assert "o" in chart.splitlines()[1] or "o" in "".join(chart.splitlines())

    def test_nan_and_inf_skipped(self):
        chart = line_chart(
            [0, 1, 2],
            {"s": [1.0, float("nan"), float("inf")], "t": [1.0, 2.0, 3.0]},
        )
        assert chart  # renders without error

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            line_chart([0, 1], {})
        with pytest.raises(ConfigurationError):
            line_chart([0], {"s": [1.0]})
        with pytest.raises(ConfigurationError):
            line_chart([0, 1], {"s": [1.0]})  # length mismatch
        with pytest.raises(ConfigurationError):
            line_chart([0, 1], {"s": [-1.0, 0.0]}, log_y=True)

    def test_constant_series_renders(self):
        chart = line_chart([0, 1, 2], {"s": [5.0, 5.0, 5.0]})
        assert "*" in chart


class TestBarChart:
    def test_bars_scale_to_peak(self):
        chart = bar_chart(["a", "bb"], [10.0, 5.0])
        lines = chart.splitlines()
        a_hashes = lines[0].count("#")
        b_hashes = lines[1].count("#")
        assert a_hashes == 48
        assert b_hashes == 24

    def test_labels_aligned(self):
        chart = bar_chart(["x", "longer"], [1.0, 2.0])
        lines = chart.splitlines()
        assert lines[0].index("|") == lines[1].index("|")

    def test_zero_value_has_no_bar(self):
        chart = bar_chart(["z"], [0.0])
        assert "#" not in chart

    def test_unit_suffix(self):
        assert "qps" in bar_chart(["a"], [3.0], unit=" qps")

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            bar_chart([], [])
        with pytest.raises(ConfigurationError):
            bar_chart(["a"], [1.0, 2.0])
        with pytest.raises(ConfigurationError):
            bar_chart(["a"], [-1.0])
