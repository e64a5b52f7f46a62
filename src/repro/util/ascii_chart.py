"""Terminal-friendly ASCII charts for experiment series.

The harness is deliberately free of plotting dependencies; these
renderers give load-sweep experiments a visual summary directly in the
terminal output (and in the archived ``.txt`` results). Two forms:

* :func:`line_chart` — multi-series scatter/line over a shared x axis,
  one glyph per series, optional log-y (latency curves span 3+ decades
  once a policy saturates);
* :func:`bar_chart` — labeled horizontal bars (capacity comparisons,
  degree mixes).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigurationError

_GLYPHS = "*o+x#@%&"
#: Columns of the longest bar in a bar chart.
_BAR_WIDTH = 48


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e5 or abs(value) < 1e-3:
        return f"{value:.1e}"
    if abs(value) >= 100:
        return f"{value:.0f}"
    return f"{value:.3g}"


def line_chart(
    x: Sequence[float],
    series: Dict[str, Sequence[float]],
    width: int = 64,
    height: int = 16,
    log_y: bool = False,
    title: Optional[str] = None,
    x_label: str = "",
    y_label: str = "",
) -> str:
    """Render multi-series data as an ASCII scatter chart.

    Points from different series landing on the same cell show the glyph
    of the later series in iteration order (documented, deterministic).
    """
    if not series:
        raise ConfigurationError("line_chart needs at least one series")
    if len(series) > len(_GLYPHS):
        raise ConfigurationError(f"at most {len(_GLYPHS)} series supported")
    xs = [float(v) for v in x]
    if len(xs) < 2:
        raise ConfigurationError("need at least two x points")
    for name, ys in series.items():
        if len(ys) != len(xs):
            raise ConfigurationError(
                f"series {name!r} has {len(ys)} points, x has {len(xs)}"
            )

    all_y = [float(v) for ys in series.values() for v in ys
             if v == v and not math.isinf(v)]
    if not all_y:
        raise ConfigurationError("no finite y values to plot")
    if log_y:
        positive = [v for v in all_y if v > 0]
        if not positive:
            raise ConfigurationError("log_y requires positive values")
        y_lo, y_hi = math.log10(min(positive)), math.log10(max(positive))
    else:
        y_lo, y_hi = min(all_y), max(all_y)
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    grid = [[" "] * width for _ in range(height)]

    def place(x_value: float, y_value: float, glyph: str) -> None:
        if y_value != y_value or math.isinf(y_value):
            return
        if log_y:
            if y_value <= 0:
                return
            y_value = math.log10(y_value)
        col = round((x_value - x_lo) / (x_hi - x_lo) * (width - 1))
        row = round((y_value - y_lo) / (y_hi - y_lo) * (height - 1))
        grid[height - 1 - row][col] = glyph

    legend: List[str] = []
    for glyph, (name, ys) in zip(_GLYPHS, series.items()):
        legend.append(f"{glyph} {name}")
        for x_value, y_value in zip(xs, ys):
            place(x_value, float(y_value), glyph)

    y_hi_label = 10 ** y_hi if log_y else y_hi
    y_lo_label = 10 ** y_lo if log_y else y_lo
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(f"{_fmt(y_hi_label):>9} +" + "".join(grid[0]))
    for row in grid[1:-1]:
        lines.append(" " * 9 + " |" + "".join(row))
    lines.append(f"{_fmt(y_lo_label):>9} +" + "".join(grid[-1]))
    axis = f"{_fmt(x_lo)}"
    right = _fmt(x_hi)
    pad = max(1, width - len(axis) - len(right))
    lines.append(" " * 11 + axis + " " * pad + right)
    footer = "  ".join(legend)
    if x_label or y_label:
        footer += f"   [{x_label} vs {y_label}{', log y' if log_y else ''}]"
    elif log_y:
        footer += "   [log y]"
    lines.append(" " * 11 + footer)
    return "\n".join(lines)


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    title: Optional[str] = None,
    unit: str = "",
) -> str:
    """Render labeled horizontal bars scaled to the maximum value."""
    if len(labels) != len(values) or not labels:
        raise ConfigurationError("labels and values must align and be non-empty")
    numeric = [float(v) for v in values]
    if any(v < 0 for v in numeric):
        raise ConfigurationError("bar_chart requires non-negative values")
    peak = max(numeric) or 1.0
    label_width = max(len(str(l)) for l in labels)
    lines: List[str] = [title] if title else []
    for label, value in zip(labels, numeric):
        bar = "#" * max(1 if value > 0 else 0, round(value / peak * _BAR_WIDTH))
        lines.append(
            f"{str(label):>{label_width}} | {bar} {_fmt(value)}{unit}"
        )
    return "\n".join(lines)
