"""Minimal deterministic SVG line charts.

Hand-rolled on purpose: the output must be byte-identical across runs and
platforms, so no plotting library is used. Coordinates are formatted with a
fixed precision and series are drawn in insertion order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
)


_WIDTH, _HEIGHT = 720, 480
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 64, 16, 36, 48


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _text(x, y, size, body, anchor=None, attrs="") -> str:
    """A sans-serif <text>; attrs are written after the font size."""
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{attrs}>{body}</text>')


def _grid_line(x1, y1, x2, y2) -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="#dddddd" stroke-width="1"/>'


def _nice_step(span: float) -> float:
    """A 1-2-5 step that cuts span into at most 8 intervals."""
    step = 10.0 ** np.floor(np.log10(span / 4.0))
    return next(step * mult for mult in (1.0, 2.0, 5.0, 10.0) if span / (step * mult) <= 8)


@dataclass
class Series:
    label: str
    x: np.ndarray
    y: np.ndarray
    color: str
    dash: str | None = None


def _stroke(s: Series) -> str:
    """The stroke attributes a series' polyline and its legend swatch share."""
    dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
    return f'stroke="{s.color}" stroke-width="1.5"{dash}'


@dataclass
class LineChart:
    """A fixed-size chart with a log or linear x axis and a legend."""

    title: str
    x_label: str
    y_label: str
    log_x: bool = True
    series: list = field(default_factory=list)

    def add_series(self, label, x, y, dash=None):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("series x and y must be 1-D arrays of equal length")
        color = _PALETTE[len(self.series) % len(_PALETTE)]
        self.series.append(Series(label, x, y, color, dash))

    def _x_transform(self, x):
        return np.log10(x) if self.log_x else np.asarray(x, dtype=float)

    def _limits(self):
        xs = np.concatenate([self._x_transform(s.x) for s in self.series])
        ys = np.concatenate([s.y for s in self.series])
        x0, x1 = float(xs.min()), float(xs.max())
        y0, y1 = min(0.0, float(ys.min())), float(ys.max())
        if x1 == x0:  # widen by 1, or by |x0| where x0 + 1 rounds to x0 (a linear axis at 1e300)
            x1 = x0 + 1.0 if x0 + 1.0 != x0 else x0 + abs(x0)
        if y1 == y0:
            y1 = y0 + 1.0
        return x0, x1, y0, y1 * 1.05

    def _x_ticks(self, x0, x1):
        if self.log_x:
            step = max(_nice_step(x1 - x0), 1.0)  # whole decades
            decades = np.arange(np.ceil((x0 - 1e-9) / step), np.floor((x1 + 1e-9) / step) + 1) * step
            # below 1e-307, 10.0 ** d is subnormal and inexact
            return [(d, f"{10.0 ** d:g}" if d >= -307 else f"1e{d:.0f}") for d in decades]
        ticks = np.linspace(x0, x1, 6)
        return [(t, f"{t:g}") for t in ticks]

    def _y_ticks(self, y0, y1):
        step = _nice_step(y1 - y0)
        start = np.ceil(y0 / step) * step
        vals = np.arange(start, y1 + step / 2.0, step)
        return [(v, f"{v:g}") for v in vals]

    def render(self) -> str:
        if not self.series:
            raise ValueError("chart has no series")
        x0, x1, y0, y1 = self._limits()
        px0, px1 = _MARGIN_LEFT, _WIDTH - _MARGIN_RIGHT
        py0, py1 = _HEIGHT - _MARGIN_BOTTOM, _MARGIN_TOP
        pym = (py0 + py1) // 2

        def sx(x):
            return px0 + (x - x0) / (x1 - x0) * (px1 - px0)

        def sy(y):
            return py0 + (y - y0) / (y1 - y0) * (py1 - py0)

        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
            f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
            f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
            _text(_WIDTH // 2, 20, 14, self.title, "middle"),
        ]
        # axes and grid
        for xv, lab in self._x_ticks(x0, x1):
            px = _fmt(sx(xv))
            out += [_grid_line(px, py0, px, py1), _text(px, py0 + 18, 11, lab, "middle")]
        for yv, lab in self._y_ticks(y0, y1):
            py = sy(yv)
            out += [_grid_line(px0, _fmt(py), px1, _fmt(py)),
                    _text(px0 - 6, _fmt(py + 4), 11, lab, "end")]
        out += [
            f'<rect x="{px0}" y="{py1}" width="{px1 - px0}" height="{py0 - py1}" '
            'fill="none" stroke="black" stroke-width="1"/>',
            _text((px0 + px1) // 2, _HEIGHT - 10, 12, self.x_label, "middle"),
            _text(14, pym, 12, self.y_label, "middle", f' transform="rotate(-90 14 {pym})"'),
        ]
        # series
        for s in self.series:
            tx = self._x_transform(s.x)
            pts = " ".join(f"{_fmt(sx(a))},{_fmt(sy(b))}" for a, b in zip(tx, s.y))
            out.append(f'<polyline points="{pts}" fill="none" {_stroke(s)}/>')
        # legend, top-left inside the plot area
        lx, ly = px0 + 10, py1 + 14
        for i, s in enumerate(self.series):
            yy = ly + 16 * i
            out += [f'<line x1="{lx}" y1="{yy - 4}" x2="{lx + 24}" y2="{yy - 4}" {_stroke(s)}/>',
                    _text(lx + 30, yy, 11, s.label)]
        out.append("</svg>")
        return "\n".join(out) + "\n"
