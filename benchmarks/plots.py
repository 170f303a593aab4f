"""Static SVG line charts for the benchmark experiments.

Renders each saved :class:`Experiment` (runtime vs a swept parameter) as a
standalone ``.svg`` — no plotting library.  The visual rules follow a
validated design recipe:

* categorical series colors come from a fixed, CVD-validated order (worst
  adjacent ΔE 24.2) and are assigned by position, never cycled;
* marks are quiet: 2px round-capped lines, r=4 end markers wearing a 2px
  surface ring, hairline solid gridlines, one single y-axis;
* identity never rides on color alone: a legend is always present for two
  or more series, line ends carry direct labels (nudged apart to avoid
  collisions), and every point ships a native ``<title>`` tooltip; the
  companion data table lives in EXPERIMENTS.md;
* text wears text tokens (primary/secondary ink), never the series color —
  a colored key dot beside the label carries identity;
* y spans wider than ~50x switch to a log scale (announced in the axis
  label) so the fig14a-style explosion points stay readable.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING
from xml.sax.saxutils import escape

if TYPE_CHECKING:
    from .figures import Experiment, Series

# Validated light-mode palette (fixed assignment order).
SERIES_COLORS = ["#2a78d6", "#1baf7a", "#eda100", "#008300", "#4a3aa7"]
SURFACE = "#fcfcfb"
TEXT_PRIMARY = "#0b0b0b"
TEXT_SECONDARY = "#52514e"
GRID = "#e8e6e1"

WIDTH = 760
HEIGHT = 440
MARGIN = {"top": 64, "right": 180, "bottom": 56, "left": 72}
FONT = "ui-sans-serif, system-ui, 'Helvetica Neue', sans-serif"


def _nice_ticks(low: float, high: float, count: int = 5) -> list[float]:
    """Clean linear tick values covering [low, high]."""
    if high <= low:
        high = low + 1.0
    raw_step = (high - low) / max(1, count - 1)
    magnitude = 10 ** math.floor(math.log10(raw_step))
    for multiplier in (1, 2, 2.5, 5, 10):
        step = multiplier * magnitude
        if step >= raw_step:
            break
    start = math.floor(low / step) * step
    ticks = [round(start, 10)]
    while ticks[-1] < high - step * 1e-9:
        ticks.append(round(ticks[-1] + step, 10))
    return ticks


def _log_ticks(low: float, high: float) -> list[float]:
    """Powers of ten covering [low, high]."""
    lo_exp = math.floor(math.log10(low))
    hi_exp = math.ceil(math.log10(high))
    return [10.0**e for e in range(lo_exp, hi_exp + 1)]


def _format_tick(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 1:
        return f"{value:g}"
    return f"{value:.3g}"


class _Scale:
    """Linear or log mapping from data to pixel coordinates."""

    def __init__(
        self, low: float, high: float, pix_low: float, pix_high: float,
        log: bool = False,
    ) -> None:
        self.low, self.high = low, high
        self.pix_low, self.pix_high = pix_low, pix_high
        self.log = log

    def __call__(self, value: float) -> float:
        if self.log:
            fraction = (math.log10(value) - math.log10(self.low)) / (
                math.log10(self.high) - math.log10(self.low)
            )
        else:
            span = self.high - self.low or 1.0
            fraction = (value - self.low) / span
        return self.pix_low + fraction * (self.pix_high - self.pix_low)


def _collect_points(series: list[Series]) -> tuple[list[float], list[float]]:
    xs, ys = [], []
    for s in series:
        for x, y in s.points:
            xs.append(float(x))
            ys.append(float(y))
    return xs, ys


def _nudge_apart(positions: list[float], min_gap: float = 14.0) -> list[float]:
    """Shift label y-positions so none overlap (stable order)."""
    order = sorted(range(len(positions)), key=lambda i: positions[i])
    nudged = list(positions)
    previous = None
    for i in order:
        if previous is not None and nudged[i] - previous < min_gap:
            nudged[i] = previous + min_gap
        previous = nudged[i]
    return nudged


def render_line_chart(
    experiment: Experiment,
    width: int = WIDTH,
    height: int = HEIGHT,
) -> str:
    """Render one experiment as an SVG line chart (returns SVG source)."""
    series = [s for s in experiment.series if s.points]
    if not series:
        raise ValueError(f"experiment {experiment.exp_id} has no data")
    if len(series) > len(SERIES_COLORS):
        raise ValueError(
            f"{len(series)} series exceed the fixed palette "
            f"({len(SERIES_COLORS)} slots); fold extras or split the chart"
        )

    xs, ys = _collect_points(series)
    x_low, x_high = min(xs), max(xs)
    y_positive = [y for y in ys if y > 0]
    use_log = (
        len(y_positive) == len(ys)
        and y_positive
        and max(y_positive) / max(min(y_positive), 1e-12) > 50
    )

    plot_left = MARGIN["left"]
    plot_right = width - MARGIN["right"]
    plot_top = MARGIN["top"]
    plot_bottom = height - MARGIN["bottom"]

    if use_log:
        y_ticks = _log_ticks(min(y_positive), max(y_positive))
        y_scale = _Scale(
            y_ticks[0], y_ticks[-1], plot_bottom, plot_top, log=True
        )
    else:
        y_ticks = _nice_ticks(0.0 if min(ys) >= 0 else min(ys), max(ys))
        y_scale = _Scale(y_ticks[0], y_ticks[-1], plot_bottom, plot_top)
    x_scale = _Scale(x_low, x_high, plot_left, plot_right)

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}" '
        f'font-family="{FONT}">'
    )
    parts.append(
        f'<rect width="{width}" height="{height}" fill="{SURFACE}"/>'
    )

    # Title + subtitle.
    parts.append(
        f'<text x="{plot_left}" y="26" font-size="15" font-weight="600" '
        f'fill="{TEXT_PRIMARY}">{escape(experiment.title)}</text>'
    )
    y_label = experiment.y_label + (" — log scale" if use_log else "")
    parts.append(
        f'<text x="{plot_left}" y="44" font-size="12" '
        f'fill="{TEXT_SECONDARY}">{escape(y_label)} vs '
        f'{escape(experiment.x_label)}</text>'
    )

    # Gridlines + y ticks (hairline, solid, recessive).
    for tick in y_ticks:
        y = y_scale(tick)
        parts.append(
            f'<line x1="{plot_left}" y1="{y:.1f}" x2="{plot_right}" '
            f'y2="{y:.1f}" stroke="{GRID}" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{plot_left - 8}" y="{y + 4:.1f}" font-size="11" '
            f'text-anchor="end" fill="{TEXT_SECONDARY}">'
            f"{escape(_format_tick(tick))}</text>"
        )

    # X ticks at the swept values.
    seen_x = sorted({float(x) for x in xs})
    for tick in seen_x:
        x = x_scale(tick)
        parts.append(
            f'<line x1="{x:.1f}" y1="{plot_bottom}" x2="{x:.1f}" '
            f'y2="{plot_bottom + 4}" stroke="{TEXT_SECONDARY}" '
            f'stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{plot_bottom + 18}" font-size="11" '
            f'text-anchor="middle" fill="{TEXT_SECONDARY}">'
            f"{escape(_format_tick(tick))}</text>"
        )
    parts.append(
        f'<text x="{(plot_left + plot_right) / 2:.1f}" '
        f'y="{plot_bottom + 38}" font-size="12" text-anchor="middle" '
        f'fill="{TEXT_SECONDARY}">{escape(experiment.x_label)}</text>'
    )

    # Lines, markers (with surface ring), native tooltips.
    end_positions = []
    for index, s in enumerate(series):
        color = SERIES_COLORS[index]
        points = sorted(s.points, key=lambda p: float(p[0]))
        coords = [
            (x_scale(float(x)), y_scale(float(y))) for x, y in points
        ]
        path = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
        parts.append(
            f'<polyline points="{path}" fill="none" stroke="{color}" '
            f'stroke-width="2" stroke-linejoin="round" '
            f'stroke-linecap="round"/>'
        )
        for (x, y), (raw_x, raw_y) in zip(coords, points):
            tooltip = (
                f"{s.name} — {experiment.x_label} {_format_tick(raw_x)}: "
                f"{raw_y:.3f}"
            )
            parts.append(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="6" '
                f'fill="{SURFACE}"/>'
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" '
                f'fill="{color}"><title>{escape(tooltip)}</title></circle>'
            )
        end_positions.append(coords[-1][1])

    # Direct labels at line ends (nudged apart; ink = text token,
    # identity = key dot).
    nudged = _nudge_apart(end_positions)
    for index, s in enumerate(series):
        color = SERIES_COLORS[index]
        label_y = nudged[index]
        parts.append(
            f'<circle cx="{plot_right + 14}" cy="{label_y:.1f}" r="4" '
            f'fill="{color}"/>'
        )
        parts.append(
            f'<text x="{plot_right + 22}" y="{label_y + 4:.1f}" '
            f'font-size="11" fill="{TEXT_PRIMARY}">'
            f"{escape(s.name)}</text>"
        )

    parts.append("</svg>")
    return "\n".join(parts)
