"""Small deterministic SVG line plots.

Matplotlib output embeds library versions and dictionary ordering that can
drift between environments, which breaks byte-identical reruns.  This
module emits plain SVG with fixed formatting instead: linear or log axes,
a handful of tick labels, one polyline per series, optional fitted-slope
annotation for log-log data.  Coordinates are formatted at %.2f so the
files are stable against last-bit float jitter.
"""

from __future__ import annotations

import math

__all__ = ["LinePlot"]

_W, _H = 640.0, 440.0
_ML, _MR, _MT, _MB = 70.0, 20.0, 34.0, 52.0
_COLORS = ["#1f6fb2", "#c24f32", "#3a8f5d", "#7a4fb2", "#8a7b2a", "#b23a7a"]


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _tick_label(v: float) -> str:
    if v == 0:
        return "0"
    a = abs(v)
    if 1e-3 <= a < 1e4:
        s = f"{v:.4g}"
    else:
        s = f"{v:.2e}"
    return s


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if not (hi > lo):
        return [lo]
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = m * mag
        if step >= raw:
            break
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks or [lo, hi]


def _log_ticks(lo: float, hi: float) -> list[float]:
    d0 = math.floor(math.log10(lo))
    d1 = math.ceil(math.log10(hi))
    ticks = [10.0 ** d for d in range(int(d0), int(d1) + 1)
             if lo <= 10.0 ** d <= hi]
    return ticks or [lo, hi]


class LinePlot:
    """Accumulates series, then renders one SVG string."""

    def __init__(self, title: str, xlabel: str, ylabel: str,
                 xlog: bool = False, ylog: bool = False):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.xlog = xlog
        self.ylog = ylog
        self.series: list[tuple[str, list[float], list[float]]] = []
        self.annotations: list[str] = []

    def add(self, label: str, xs, ys) -> None:
        xs = [float(x) for x in xs]
        ys = [float(y) for y in ys]
        if len(xs) != len(ys):
            raise ValueError("x/y length mismatch")
        pts = [(x, y) for x, y in zip(xs, ys)
               if math.isfinite(x) and math.isfinite(y)
               and not (self.xlog and x <= 0) and not (self.ylog and y <= 0)]
        if not pts:
            raise ValueError(f"series {label!r} has no plottable points")
        self.series.append((label, [p[0] for p in pts], [p[1] for p in pts]))

    def annotate_slope(self, label: str, xs, ys) -> float:
        """Least-squares slope of log(y) vs log(x), added as a text note."""
        lx = [math.log(float(x)) for x in xs]
        ly = [math.log(float(y)) for y in ys]
        n = len(lx)
        if n < 2:
            raise ValueError("need at least two points for a slope")
        mx = sum(lx) / n
        my = sum(ly) / n
        sxx = sum((a - mx) ** 2 for a in lx)
        sxy = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
        slope = sxy / sxx
        self.annotations.append(f"{label}: slope {slope:.3f}")
        return slope

    # -- rendering ---------------------------------------------------------

    def _limits(self):
        xs = [x for _, sx, _ in self.series for x in sx]
        ys = [y for _, _, sy in self.series for y in sy]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        if self.xlog:
            if x0 == x1:
                x0, x1 = x0 / 2, x1 * 2
        elif x0 == x1:
            x0, x1 = x0 - 1, x1 + 1
        if self.ylog:
            if y0 == y1:
                y0, y1 = y0 / 2, y1 * 2
            else:
                pad = (y1 / y0) ** 0.05
                y0, y1 = y0 / pad, y1 * pad
        else:
            pad = 0.05 * (y1 - y0) or 1.0
            y0, y1 = y0 - pad, y1 + pad
        return x0, x1, y0, y1

    def _to_px(self, x, y, lims):
        x0, x1, y0, y1 = lims
        if self.xlog:
            fx = (math.log(x) - math.log(x0)) / (math.log(x1) - math.log(x0))
        else:
            fx = (x - x0) / (x1 - x0)
        if self.ylog:
            fy = (math.log(y) - math.log(y0)) / (math.log(y1) - math.log(y0))
        else:
            fy = (y - y0) / (y1 - y0)
        px = _ML + fx * (_W - _ML - _MR)
        py = _H - _MB - fy * (_H - _MT - _MB)
        return px, py

    def render(self) -> str:
        if not self.series:
            raise ValueError("no series to plot")
        lims = self._limits()
        x0, x1, y0, y1 = lims
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_W)}" '
            f'height="{int(_H)}" viewBox="0 0 {int(_W)} {int(_H)}">',
            f'<rect x="0" y="0" width="{int(_W)}" height="{int(_H)}" fill="#ffffff"/>',
            f'<text x="{_fmt(_W / 2)}" y="20" font-size="15" text-anchor="middle" '
            f'font-family="monospace">{self.title}</text>',
        ]
        ax_style = 'stroke="#333333" stroke-width="1"'
        parts.append(f'<line x1="{_fmt(_ML)}" y1="{_fmt(_H - _MB)}" '
                     f'x2="{_fmt(_W - _MR)}" y2="{_fmt(_H - _MB)}" {ax_style}/>')
        parts.append(f'<line x1="{_fmt(_ML)}" y1="{_fmt(_MT)}" '
                     f'x2="{_fmt(_ML)}" y2="{_fmt(_H - _MB)}" {ax_style}/>')

        xticks = _log_ticks(x0, x1) if self.xlog else _nice_ticks(x0, x1)
        yticks = _log_ticks(y0, y1) if self.ylog else _nice_ticks(y0, y1)
        for t in xticks:
            px, _ = self._to_px(t, y1, lims)
            parts.append(f'<line x1="{_fmt(px)}" y1="{_fmt(_H - _MB)}" '
                         f'x2="{_fmt(px)}" y2="{_fmt(_H - _MB + 5)}" {ax_style}/>')
            parts.append(f'<text x="{_fmt(px)}" y="{_fmt(_H - _MB + 18)}" font-size="11" '
                         f'text-anchor="middle" font-family="monospace">{_tick_label(t)}</text>')
        for t in yticks:
            _, py = self._to_px(x0, t, lims)
            parts.append(f'<line x1="{_fmt(_ML - 5)}" y1="{_fmt(py)}" '
                         f'x2="{_fmt(_ML)}" y2="{_fmt(py)}" {ax_style}/>')
            parts.append(f'<text x="{_fmt(_ML - 8)}" y="{_fmt(py + 4)}" font-size="11" '
                         f'text-anchor="end" font-family="monospace">{_tick_label(t)}</text>')

        parts.append(f'<text x="{_fmt((_ML + _W - _MR) / 2)}" y="{_fmt(_H - 14)}" '
                     f'font-size="13" text-anchor="middle" font-family="monospace">'
                     f'{self.xlabel}</text>')
        parts.append(f'<text x="16" y="{_fmt((_MT + _H - _MB) / 2)}" font-size="13" '
                     f'text-anchor="middle" font-family="monospace" '
                     f'transform="rotate(-90 16 {_fmt((_MT + _H - _MB) / 2)})">'
                     f'{self.ylabel}</text>')

        for idx, (label, sx, sy) in enumerate(self.series):
            color = _COLORS[idx % len(_COLORS)]
            pts = " ".join(f"{_fmt(px)},{_fmt(py)}"
                           for px, py in (self._to_px(x, y, lims)
                                          for x, y in zip(sx, sy)))
            parts.append(f'<polyline points="{pts}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
            ly = _MT + 16 + 16 * idx
            lx = _W - _MR - 160
            parts.append(f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" x2="{_fmt(lx + 22)}" '
                         f'y2="{_fmt(ly - 4)}" stroke="{color}" stroke-width="1.5"/>')
            parts.append(f'<text x="{_fmt(lx + 28)}" y="{_fmt(ly)}" font-size="11" '
                         f'font-family="monospace">{label}</text>')

        for k, note in enumerate(self.annotations):
            parts.append(f'<text x="{_fmt(_ML + 8)}" y="{_fmt(_MT + 16 + 14 * k)}" '
                         f'font-size="11" font-family="monospace" fill="#444444">{note}</text>')

        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render())
