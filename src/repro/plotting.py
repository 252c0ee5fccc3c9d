"""Terminal (ASCII) charts for regenerating the paper's figures as text.

The benchmark harness and CLI render every figure-shaped result — RMS error
vs loss rate, relative-error timelines, domination-factor sweeps, false
negative rates — without a plotting dependency. Two renderers:

* :class:`LineChart` — multi-series scatter/line charts on a character
  grid with axes, tick labels, and a legend (Figures 2, 5, 6, 7, 9).
* :func:`bar_chart` — grouped horizontal bars with log-scale support
  (Figure 8's load comparison).
* :func:`sparkline` — a one-line unicode summary of a series, used in
  experiment logs.
* :func:`render_series_table` / :func:`format_table` — the numeric tables
  beside the charts (and every experiment's and sweep's text report).

These mirror the matplotlib figures in shape only; the point is that the
series orderings and crossovers — what the reproduction asserts — are
visible directly in the benchmark output files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

#: Marker characters assigned to series in order.
_MARKERS = "*o+x#@%&"

_SPARK_LEVELS = " .:-=+*#%@"


@dataclass
class Series:
    """One named line on a chart."""

    label: str
    points: List[Tuple[float, float]]

    def __post_init__(self) -> None:
        if not self.points:
            raise ConfigurationError(f"series {self.label!r} has no points")


class LineChart:
    """A multi-series character-grid chart.

    Args:
        title: chart title.
        x_label / y_label: axis captions.
        width / height: plot-area size in characters.
        y_min / y_max: fixed y range; default snaps to the data.
    """

    def __init__(
        self,
        title: str,
        x_label: str = "x",
        y_label: str = "y",
        width: int = 60,
        height: int = 16,
        y_min: Optional[float] = None,
        y_max: Optional[float] = None,
    ) -> None:
        if width < 10 or height < 4:
            raise ConfigurationError("chart area must be at least 10x4")
        self.title = title
        self.x_label = x_label
        self.y_label = y_label
        self.width = width
        self.height = height
        self._y_min = y_min
        self._y_max = y_max
        self._series: List[Series] = []

    def add_series(
        self, label: str, points: Sequence[Tuple[float, float]]
    ) -> "LineChart":
        """Add a named series; returns self for chaining."""
        if len(self._series) >= len(_MARKERS):
            raise ConfigurationError(
                f"at most {len(_MARKERS)} series per chart"
            )
        self._series.append(Series(label, [(float(x), float(y)) for x, y in points]))
        return self

    def _bounds(self) -> Tuple[float, float, float, float]:
        if not self._series:
            raise ConfigurationError("chart has no series")
        xs = [x for series in self._series for x, _ in series.points]
        ys = [y for series in self._series for _, y in series.points]
        x_lo, x_hi = min(xs), max(xs)
        y_lo = self._y_min if self._y_min is not None else min(ys)
        y_hi = self._y_max if self._y_max is not None else max(ys)
        if x_hi == x_lo:
            x_hi = x_lo + 1.0
        if y_hi == y_lo:
            y_hi = y_lo + 1.0
        return x_lo, x_hi, y_lo, y_hi

    def render(self) -> str:
        """Draw the chart to a string."""
        x_lo, x_hi, y_lo, y_hi = self._bounds()
        grid = [[" "] * self.width for _ in range(self.height)]

        def place(x: float, y: float, marker: str) -> None:
            column = round((x - x_lo) / (x_hi - x_lo) * (self.width - 1))
            row = round((y - y_lo) / (y_hi - y_lo) * (self.height - 1))
            row = self.height - 1 - max(0, min(self.height - 1, row))
            column = max(0, min(self.width - 1, column))
            cell = grid[row][column]
            grid[row][column] = marker if cell in (" ", marker) else "?"

        for index, series in enumerate(self._series):
            marker = _MARKERS[index]
            for x, y in series.points:
                place(x, y, marker)

        label_width = max(
            len(f"{y_hi:.3g}"), len(f"{y_lo:.3g}"), len(self.y_label)
        )
        lines = [self.title, ""]
        for row_index, row in enumerate(grid):
            if row_index == 0:
                prefix = f"{y_hi:.3g}".rjust(label_width)
            elif row_index == self.height - 1:
                prefix = f"{y_lo:.3g}".rjust(label_width)
            elif row_index == self.height // 2:
                prefix = self.y_label[:label_width].rjust(label_width)
            else:
                prefix = " " * label_width
            lines.append(f"{prefix} |{''.join(row)}")
        axis = " " * label_width + " +" + "-" * self.width
        lines.append(axis)
        x_caption = (
            f"{x_lo:.3g}".ljust(self.width // 2)
            + self.x_label.center(0)
            + f"{x_hi:.3g}".rjust(self.width // 2)
        )
        lines.append(" " * (label_width + 2) + x_caption)
        lines.append("")
        for index, series in enumerate(self._series):
            lines.append(f"  {_MARKERS[index]} {series.label}")
        return "\n".join(lines)


def bar_chart(
    title: str,
    groups: Mapping[str, Mapping[str, float]],
    width: int = 40,
    log_scale: bool = False,
    unit: str = "",
) -> str:
    """Grouped horizontal bars (Figure 8's layout).

    Args:
        title: chart title.
        groups: group label -> (bar label -> value).
        width: maximum bar length in characters.
        log_scale: scale bar lengths by log10 (Figure 8's y-axis).
        unit: suffix printed after each value.
    """
    if not groups:
        raise ConfigurationError("bar chart needs at least one group")
    values = [
        value for bars in groups.values() for value in bars.values()
    ]
    if not values:
        raise ConfigurationError("bar chart needs at least one bar")
    if log_scale and min(values) <= 0:
        raise ConfigurationError("log-scale bars need positive values")

    def length(value: float) -> int:
        if log_scale:
            low = math.log10(min(values)) - 0.5
            high = math.log10(max(values))
            span = max(high - low, 1e-9)
            return max(1, round((math.log10(value) - low) / span * width))
        high = max(values)
        return max(1 if value > 0 else 0, round(value / high * width))

    label_width = max(
        len(label) for bars in groups.values() for label in bars
    )
    lines = [title, ""]
    for group, bars in groups.items():
        lines.append(f"{group}:")
        for label, value in bars.items():
            bar = "#" * length(value)
            lines.append(
                f"  {label.ljust(label_width)} {bar} {value:.6g}{unit}"
            )
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"


def sparkline(values: Sequence[float]) -> str:
    """A one-line character summary of a series (for experiment logs)."""
    if not values:
        return ""
    low = min(values)
    high = max(values)
    span = high - low
    if span == 0:
        return _SPARK_LEVELS[0] * len(values)
    indices = [
        min(
            len(_SPARK_LEVELS) - 1,
            int((value - low) / span * (len(_SPARK_LEVELS) - 1)),
        )
        for value in values
    ]
    return "".join(_SPARK_LEVELS[index] for index in indices)


def render_series_table(
    x_label: str,
    series: Mapping[str, Sequence[Tuple[float, float]]],
    precision: int = 3,
) -> str:
    """The numeric companion to a chart: one row per x, one column per series.

    All series must be sampled on the same x grid (the sweep harness
    guarantees this); mismatched grids raise.
    """
    if not series:
        raise ConfigurationError("table needs at least one series")
    grids = {name: tuple(x for x, _ in points) for name, points in series.items()}
    reference = next(iter(grids.values()))
    for name, grid in grids.items():
        if grid != reference:
            raise ConfigurationError(
                f"series {name!r} is sampled on a different x grid"
            )
    names = list(series)
    header = [x_label] + names
    rows = [header]
    for index, x in enumerate(reference):
        row = [f"{x:.{precision}g}"]
        for name in names:
            row.append(f"{series[name][index][1]:.{precision}g}")
        rows.append(row)
    widths = [
        max(len(row[column]) for row in rows) for column in range(len(header))
    ]
    lines = []
    for row_index, row in enumerate(rows):
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
        if row_index == 0:
            lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    return "\n".join(lines)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a small fixed-width text table (experiment and sweep reports)."""
    materialised: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialised:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in materialised:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)
