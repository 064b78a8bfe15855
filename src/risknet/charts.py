"""Deterministic SVG charts for study outputs, written to ``charts/``: the
per-window line charts of the time series and the per-year band chart of
edge weights, with the weight statistics it plots. Everything is rendered
by string assembly with fixed-precision coordinates, so identical inputs
give identical bytes. No plotting dependency.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import chain, groupby
from pathlib import Path
from typing import Iterable, Sequence

from .errors import RiskNetError
from .reports import RobustnessReport, SavedNetwork, SubPeriod, _write_files, timeseries_rows

__all__ = ["emit_charts"]

log = logging.getLogger(__name__)

WIDTH = 900
HEIGHT = 360
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64.0, 16.0, 40.0, 48.0

_AXIS = "#444444"
_GRID = "#dddddd"
_LINE = "#1f5fa6"
_BAND = "#9ec5e8"
_MARK = "#b03030"


@dataclass(frozen=True)
class _WeightBand:
    """Positive-weight distribution summary for one group of networks."""

    group: str
    count: int
    mean: float
    q05: float
    q95: float


def _weight_distribution_stats(networks: Iterable[SavedNetwork]) -> tuple[_WeightBand, ...]:
    """Mean and 5%/95% band of positive weights, grouped per year: the
    exactly rounded mean of the year's weights (``math.fsum``) and numpy's
    default (``linear``) quantiles of them, bit for bit. The networks are
    read once, in window order; a year after a later one raises
    ``ValueError``, and a year with no positive weight is omitted (logged).
    """
    bands, previous = [], ""
    for year, group in groupby(networks, key=lambda net: net.label.split("-")[0]):
        if year < previous:
            raise ValueError(f"networks of {year} come after those of {previous}")
        previous = year
        weights = list(chain.from_iterable(net.weights for net in group))
        if not weights:
            log.warning("weight stats: no positive weights in %s, group omitted", year)
            continue
        weights.sort()  # fsum's sum does not depend on the order of its input
        count, q05, q95 = len(weights), _quantile(weights, 0.05), _quantile(weights, 0.95)
        bands.append(_WeightBand(year, count, math.fsum(weights) / count, q05, q95))
    return tuple(bands)


def _quantile(ordered: Sequence[float], q: float) -> float:
    """numpy's default (``linear``) quantile ``q`` of sorted values, to the
    last bit."""
    at = (len(ordered) - 1) * q
    if at >= len(ordered) - 1:
        return ordered[-1]
    k = math.floor(at)
    gamma = at - k
    a, b = ordered[k], ordered[k + 1]
    return a + (b - a) * gamma if gamma < 0.5 else b - (b - a) * (1 - gamma)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _coord(value: float) -> str:
    return f"{value:.2f}"


def _scale(lo: float, hi: float, out_lo: float, out_hi: float):
    span = hi - lo
    if span == 0.0:
        lo, hi, span = lo - 1.0, hi + 1.0, 2.0
    rate = (out_hi - out_lo) / span
    return lambda v: out_lo + (v - lo) * rate, lo, hi


def _line(x1: str, y1: str, x2: str, y2: str, stroke: str, width: str = "1", more: str = "") -> str:
    """A line element between formatted coordinates; ``more`` holds any
    further attributes, each after a space."""
    return (
        f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
        f'stroke="{stroke}" stroke-width="{width}"{more}/>'
    )


def _text(x: str, y: str, body: str, size: str, fill: str, more: str = "") -> str:
    """A text element at formatted coordinates; ``more`` holds attributes,
    each after a space, that come before the font size. Every chart text is
    written here, so its ``&``, ``<`` and ``>`` are always escaped."""
    body = body.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f'<text x="{x}" y="{y}"{more} font-size="{size}" fill="{fill}">{body}</text>'


def _frame(title: str, to_y, lo: float, hi: float, body: list[str]) -> str:
    """A whole chart: background, title, y grid and labels at five levels
    from ``lo`` to ``hi``, then ``body``, the x-axis line and the close."""
    x0, x1 = _coord(MARGIN_L), _coord(WIDTH - MARGIN_R)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        _text(_coord(WIDTH / 2), "22", title, "15", _AXIS, ' text-anchor="middle"'),
    ]
    for i in range(5):
        value = lo + (hi - lo) * i / 4
        y = _coord(to_y(value))
        parts += [
            _line(x0, y, x1, y, _GRID),
            _text(_coord(MARGIN_L - 6), y, _fmt(value), "11", _AXIS,
                  ' text-anchor="end" dominant-baseline="middle"'),
        ]
    base = _coord(HEIGHT - MARGIN_B)
    return "\n".join([*parts, *body, _line(x0, base, x1, base, _AXIS), "</svg>"]) + "\n"


def _line_chart(
    points: Sequence[tuple[float, float]],
    *,
    title: str,
    x_ticks: Sequence[tuple[float, str]],
    boundaries: Sequence[tuple[float, str]],
) -> str:
    """Single-series line chart with one marker per point.

    ``boundaries`` draws labelled dashed vertical lines (sub-period
    starts). Axis ranges always cover the data's min and max.
    """
    if not points:
        raise RiskNetError("cannot chart an empty series")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    to_x, _, _ = _scale(min(xs), max(xs), MARGIN_L, WIDTH - MARGIN_R)
    to_y, y_lo, y_hi = _scale(min(ys), max(ys), HEIGHT - MARGIN_B, MARGIN_T)

    base = _coord(HEIGHT - MARGIN_B)
    parts = []
    for x_value, text in x_ticks:
        x = _coord(to_x(x_value))
        parts += [
            _line(x, base, x, _coord(HEIGHT - MARGIN_B + 4), _AXIS),
            _text(x, _coord(HEIGHT - MARGIN_B + 18), text, "11", _AXIS, ' text-anchor="middle"'),
        ]
    for x_value, label in boundaries:
        x = _coord(to_x(x_value))
        parts += [
            _line(x, _coord(MARGIN_T), x, base, _MARK, more=' stroke-dasharray="4 3"'),
            _text(_coord(to_x(x_value) + 4), _coord(MARGIN_T + 12), label, "10", _MARK),
        ]
    coords = [(_coord(to_x(x)), _coord(to_y(y))) for x, y in points]
    path = "M " + " L ".join(f"{x} {y}" for x, y in coords)
    parts.append(f'<path d="{path}" fill="none" stroke="{_LINE}" stroke-width="1.5"/>')
    parts += [f'<circle cx="{x}" cy="{y}" r="2.5" fill="{_LINE}"/>' for x, y in coords]
    return _frame(title, to_y, y_lo, y_hi, parts)


def _band_chart(bands: Sequence[_WeightBand], *, title: str) -> str:
    """Per-group box summary: 5%-95% band as a bar, mean as a marker."""
    if not bands:
        raise RiskNetError("cannot chart an empty band list")
    lo = min(b.q05 for b in bands)
    hi = max(b.q95 for b in bands)
    to_y, y_lo, y_hi = _scale(lo, hi, HEIGHT - MARGIN_B, MARGIN_T)
    slot = (WIDTH - MARGIN_L - MARGIN_R) / len(bands)
    bar = min(34.0, slot * 0.5)

    label_y = _coord(HEIGHT - MARGIN_B + 18)
    parts = []
    for i, band in enumerate(bands):
        centre = MARGIN_L + slot * (i + 0.5)
        left, right = _coord(centre - bar / 2), _coord(centre + bar / 2)
        top = to_y(band.q95)
        mean = _coord(to_y(band.mean))
        parts += [
            f'<rect x="{left}" y="{_coord(top)}" width="{_coord(bar)}" '
            f'height="{_coord(to_y(band.q05) - top)}" fill="{_BAND}"/>',
            _line(left, mean, right, mean, _MARK, "2"),
            _text(_coord(centre), label_y, band.group, "11", _AXIS, ' text-anchor="middle"'),
        ]
    return _frame(title, to_y, y_lo, y_hi, parts)


def _window_ticks(rows: Sequence[tuple]) -> list[tuple[float, str]]:
    step = max(1, len(rows) // 8)
    return [(row[0], row[1]) for row in rows[::step]]


def _boundaries(
    rows: Sequence[tuple], sub_periods: Sequence[SubPeriod]
) -> list[tuple[float, str]]:
    marks = []
    for period in sub_periods:
        starts = [row[0] for row in rows if row[5] == period.label]
        if starts:
            marks.append((min(starts), period.label))
    return marks


def _write_svg(svg: str, path: Path) -> None:
    path.write_text(svg, encoding="utf-8")


# (file, column of the time-series rows, title) of each line chart
_LINE_CHARTS = (
    ("normalized_kirchhoff.svg", 3, "Normalized Kirchhoff index by window"),
    ("density.svg", 2, "Network density by window"),
    ("median_clustering.svg", 4, "Median weighted clustering by window"),
)


def emit_charts(
    reports: Sequence[RobustnessReport],
    networks: Iterable[SavedNetwork],
    sub_periods: Sequence[SubPeriod],
    out_dir: str | Path,
) -> list[Path]:
    """Write the study's charts into ``charts/`` once ``networks`` (in window
    order) are read, deleting every other ``*.svg`` there; returns the files written."""
    rows = timeseries_rows(reports, sub_periods)
    marks = _boundaries(rows, sub_periods)
    ticks = _window_ticks(rows)
    charts = {
        name: _line_chart(
            [(row[0], row[column]) for row in rows], title=title, x_ticks=ticks, boundaries=marks
        )
        for name, column, title in _LINE_CHARTS
    }
    bands = _weight_distribution_stats(networks)
    if bands:
        charts["weights_by_year.svg"] = _band_chart(
            bands, title="Edge weights by year: mean and 5-95% band"
        )
    entries = [(name, _write_svg, svg) for name, svg in charts.items()]
    return _write_files(out_dir, "charts", entries)
