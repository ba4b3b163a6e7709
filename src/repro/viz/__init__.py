"""Rendering of the paper's figures: ASCII for terminals, SVG for files."""

from repro.viz.ascii_chart import AsciiChart, render_series, site_series
from repro.viz.svg_chart import SvgChart, figure_svg

__all__ = ["AsciiChart", "render_series", "site_series", "SvgChart", "figure_svg"]
