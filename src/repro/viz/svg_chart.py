"""Hand-rolled SVG line charts — viewable reproductions of Figures 1-3.

No plotting dependency: the chart is assembled as SVG elements directly,
which keeps the library self-contained and the output deterministic (same
data, byte-identical file).  The styling mimics the paper's figures: a
plain frame, tick labels, a dashed/solid line per site, and a legend.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from repro.errors import ConfigurationError, ReproError

# Dash patterns cycled per series, echoing the paper's line styles.
_DASHES = ["", "6,3", "2,3", "8,3,2,3", "4,2", "1,2"]
_STROKE = "#1a1a1a"


@dataclass(slots=True)
class _Series:
    name: str
    points: list[tuple[float, float]]
    dash: str


class SvgChart:
    """A multi-series line chart rendered to an SVG string."""

    def __init__(
        self,
        title: str = "",
        x_label: str = "Number of Transactions",
        y_label: str = "Fail-Locks Set",
        width: int = 640,
        height: int = 400,
    ) -> None:
        if width < 100 or height < 80:
            raise ReproError(f"chart too small: {width}x{height}")
        self.title = title
        self.x_label = x_label
        self.y_label = y_label
        self.width = width
        self.height = height
        self.margin = {"left": 56, "right": 16, "top": 40, "bottom": 48}
        self._series: list[_Series] = []

    def add_series(self, name: str, points: list[tuple[float, float]]) -> None:
        """Add one named line."""
        dash = _DASHES[len(self._series) % len(_DASHES)]
        self._series.append(_Series(name=name, points=list(points), dash=dash))

    # -- geometry ------------------------------------------------------------

    def _bounds(self) -> tuple[float, float, float, float]:
        xs = [p[0] for s in self._series for p in s.points]
        ys = [p[1] for s in self._series for p in s.points]
        if not xs:
            return 0.0, 1.0, 0.0, 1.0
        return min(xs), max(max(xs), min(xs) + 1e-9), 0.0, max(max(ys), 1.0)

    def _plot_rect(self) -> tuple[float, float, float, float]:
        x0 = self.margin["left"]
        y0 = self.margin["top"]
        return (
            x0,
            y0,
            self.width - x0 - self.margin["right"],
            self.height - y0 - self.margin["bottom"],
        )

    def _project(self, x: float, y: float) -> tuple[float, float]:
        x_min, x_max, y_min, y_max = self._bounds()
        px, py, pw, ph = self._plot_rect()
        fx = (x - x_min) / (x_max - x_min)
        fy = (y - y_min) / max(y_max - y_min, 1e-9)
        return px + fx * pw, py + (1.0 - fy) * ph

    # -- rendering -------------------------------------------------------------

    @staticmethod
    def _ticks(low: float, high: float, count: int = 5) -> list[float]:
        if high <= low:
            return [low]
        step = (high - low) / count
        return [low + i * step for i in range(count + 1)]

    def render(self) -> str:
        """The complete SVG document as a string."""
        px, py, pw, ph = self._plot_rect()
        x_min, x_max, y_min, y_max = self._bounds()
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">',
            f'<rect width="{self.width}" height="{self.height}" fill="white"/>',
            f'<rect x="{px}" y="{py}" width="{pw}" height="{ph}" fill="none" '
            f'stroke="{_STROKE}" stroke-width="1"/>',
        ]
        if self.title:
            parts.append(
                f'<text x="{self.width / 2}" y="20" text-anchor="middle" '
                f'font-family="serif" font-size="14">{_esc(self.title)}</text>'
            )
        # Axis ticks and labels.
        for tick in self._ticks(x_min, x_max):
            tx, _ = self._project(tick, y_min)
            parts.append(
                f'<line x1="{tx:.1f}" y1="{py + ph}" x2="{tx:.1f}" '
                f'y2="{py + ph + 4}" stroke="{_STROKE}"/>'
            )
            parts.append(
                f'<text x="{tx:.1f}" y="{py + ph + 18}" text-anchor="middle" '
                f'font-family="serif" font-size="11">{tick:.0f}</text>'
            )
        for tick in self._ticks(y_min, y_max):
            _, ty = self._project(x_min, tick)
            parts.append(
                f'<line x1="{px - 4}" y1="{ty:.1f}" x2="{px}" y2="{ty:.1f}" '
                f'stroke="{_STROKE}"/>'
            )
            parts.append(
                f'<text x="{px - 8}" y="{ty + 4:.1f}" text-anchor="end" '
                f'font-family="serif" font-size="11">{tick:.0f}</text>'
            )
        parts.append(
            f'<text x="{px + pw / 2}" y="{self.height - 8}" '
            f'text-anchor="middle" font-family="serif" font-size="12">'
            f"{_esc(self.x_label)}</text>"
        )
        parts.append(
            f'<text x="14" y="{py + ph / 2}" text-anchor="middle" '
            f'font-family="serif" font-size="12" '
            f'transform="rotate(-90 14 {py + ph / 2})">{_esc(self.y_label)}</text>'
        )
        # Series polylines.
        for series in self._series:
            if not series.points:
                continue
            coords = " ".join(
                f"{x:.1f},{y:.1f}"
                for x, y in (self._project(*p) for p in series.points)
            )
            dash = f' stroke-dasharray="{series.dash}"' if series.dash else ""
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{_STROKE}" '
                f'stroke-width="1.4"{dash}/>'
            )
        # Legend (top-right inside the frame).
        for index, series in enumerate(self._series):
            ly = py + 14 + index * 16
            lx = px + pw - 130
            dash = f' stroke-dasharray="{series.dash}"' if series.dash else ""
            parts.append(
                f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 28}" y2="{ly - 4}" '
                f'stroke="{_STROKE}" stroke-width="1.4"{dash}/>'
            )
            parts.append(
                f'<text x="{lx + 34}" y="{ly}" font-family="serif" '
                f'font-size="11">{_esc(series.name)}</text>'
            )
        parts.append("</svg>")
        return "\n".join(parts)


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def figure_svg(
    series: dict[str, list[tuple[float, float]]],
    title: str = "",
    path: str | Path | None = None,
    **labels: str,
) -> str:
    """One-call helper: render (and optionally save) a figure.

    ``labels`` are the chart's ``x_label`` / ``y_label``.  A figure with
    nothing to plot is an error, not an empty frame.
    """
    if not series:
        raise ConfigurationError(f"{title}: no plottable series")
    chart = SvgChart(title=title, **labels)
    for name in series:
        chart.add_series(name, series[name])
    svg = chart.render()
    if path is not None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(svg, encoding="utf-8")
    return svg
