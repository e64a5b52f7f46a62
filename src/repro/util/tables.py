"""Plain-text table rendering for the benchmark/experiment harness.

The harness regenerates the paper's tables and figure data series as
aligned ASCII tables on stdout; this module is the single place where the
formatting lives so every experiment prints consistently.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.errors import ConfigurationError


def format_float(value: Any, digits: int = 3) -> str:
    """Format a number compactly for table cells.

    Integers print without a decimal point; floats use ``digits``
    significant fractional digits; everything else goes through ``str``.
    """
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value == 0:
            return "0"
        if abs(value) >= 1e6 or abs(value) < 1e-4:
            return f"{value:.{digits}e}"
        return f"{value:.{digits}f}"
    return str(value)


class Table:
    """An append-only table of rows rendered as aligned monospace text.

    >>> t = Table(["policy", "p99_ms"], title="E6")
    >>> t.add_row(["adaptive", 12.345])
    >>> print(t.render())  # doctest: +SKIP
    """

    def __init__(self, columns: Sequence[str], title: Optional[str] = None) -> None:
        if not columns:
            raise ConfigurationError("Table requires at least one column")
        self.columns: List[str] = [str(c) for c in columns]
        self.title = title
        self._rows: List[List[str]] = []

    def add_row(self, values: Iterable[Any]) -> None:
        row = [format_float(v) for v in values]
        if len(row) != len(self.columns):
            raise ConfigurationError(
                f"row has {len(row)} cells, table has {len(self.columns)} columns"
            )
        self._rows.append(row)

    @property
    def n_rows(self) -> int:
        return len(self._rows)

    def as_records(self) -> List[Dict[str, str]]:
        """Return rows as a list of ``{column: cell}`` dicts (strings)."""
        return [dict(zip(self.columns, row)) for row in self._rows]

    def render(self) -> str:
        widths = [len(c) for c in self.columns]
        for row in self._rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))

        def fmt_line(cells: Sequence[str]) -> str:
            return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

        lines: List[str] = []
        if self.title:
            lines.append(self.title)
        header = fmt_line(self.columns)
        lines.append(header)
        lines.append("-" * len(header))
        lines.extend(fmt_line(row) for row in self._rows)
        return "\n".join(lines)

    def print(self) -> None:
        print(self.render())
        print()

    def __str__(self) -> str:
        return self.render()
