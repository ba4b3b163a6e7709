"""ASCII line charts for the fail-lock figures.

Figures 1-3 of the paper plot "number of fail-locks set" against
"number of transactions", one line per site.  :class:`AsciiChart` renders
the same picture in a terminal so experiment runs are self-contained.
"""

from __future__ import annotations

from repro.errors import ReproError

# One plotting glyph per series, cycled.
_GLYPHS = "o*+x#@%&"


class AsciiChart:
    """A multi-series scatter/line chart on a character grid."""

    def __init__(
        self,
        width: int = 72,
        height: int = 20,
        title: str = "",
        x_label: str = "Number of Transactions",
        y_label: str = "Fail-Locks",
    ) -> None:
        if width < 10 or height < 4:
            raise ReproError(f"chart too small: {width}x{height}")
        self.width = width
        self.height = height
        self.title = title
        self.x_label = x_label
        self.y_label = y_label
        self._series: list[tuple[str, list[tuple[float, float]]]] = []

    def add_series(self, name: str, points: list[tuple[float, float]]) -> None:
        """Add one named line (e.g. ``site 0``)."""
        self._series.append((name, list(points)))

    def render(self) -> str:
        """The chart as a multi-line string."""
        all_points = [p for _name, pts in self._series for p in pts]
        if not all_points:
            return f"{self.title}\n(no data)"
        x_min = min(p[0] for p in all_points)
        x_max = max(p[0] for p in all_points)
        y_min = 0.0
        y_max = max(max(p[1] for p in all_points), 1.0)
        x_span = max(x_max - x_min, 1e-9)
        y_span = max(y_max - y_min, 1e-9)

        grid = [[" "] * self.width for _ in range(self.height)]
        for index, (_name, points) in enumerate(self._series):
            glyph = _GLYPHS[index % len(_GLYPHS)]
            for x, y in points:
                col = round((x - x_min) / x_span * (self.width - 1))
                row = self.height - 1 - round((y - y_min) / y_span * (self.height - 1))
                grid[row][col] = glyph

        label_width = max(len(f"{y_max:.0f}"), len(f"{y_min:.0f}")) + 1
        lines = []
        if self.title:
            lines.append(self.title)
        legend = "   ".join(
            f"{_GLYPHS[i % len(_GLYPHS)]} {name}"
            for i, (name, _pts) in enumerate(self._series)
        )
        if legend:
            lines.append(legend)
        for row_index, row in enumerate(grid):
            frac = 1.0 - row_index / (self.height - 1)
            y_value = y_min + frac * y_span
            show_label = row_index % max(1, self.height // 5) == 0 or row_index == self.height - 1
            label = f"{y_value:>{label_width}.0f}" if show_label else " " * label_width
            lines.append(f"{label} |{''.join(row)}")
        axis = " " * label_width + " +" + "-" * self.width
        lines.append(axis)
        left = f"{x_min:.0f}"
        right = f"{x_max:.0f}"
        gap = self.width - len(left) - len(right)
        lines.append(" " * (label_width + 2) + left + " " * max(gap, 1) + right)
        lines.append(" " * (label_width + 2) + self.x_label)
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


def site_series(series: dict[int, list]) -> dict[str, list]:
    """Name per-site series the way the paper's legends do (``site 0``)."""
    return {f"site {site}": points for site, points in series.items()}


def render_series(
    series: dict[str, list[tuple[float, float]]],
    title: str = "",
    width: int = 72,
    height: int = 20,
    **labels: str,
) -> str:
    """One-call helper: ``{name: [(x, y), ...]}`` to an ASCII chart.

    ``labels`` are the chart's ``x_label`` / ``y_label``.
    """
    chart = AsciiChart(width=width, height=height, title=title, **labels)
    for name in series:
        chart.add_series(name, series[name])
    return chart.render()
