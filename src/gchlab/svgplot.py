"""Minimal SVG line charts so runs can emit plots without a plotting stack.

Deliberately small: axes, 1-2-5 ticks, a handful of polylines, a legend,
optional log10 y-axis.  Output is deterministic.
"""

from __future__ import annotations

import math

PALETTE = ("#1f6f8b", "#c1553c", "#5a8f3d", "#7b5ea7", "#b08c2e", "#3f3f3f")

WIDTH, HEIGHT = 720, 440
ML, MR, MT, MB = 64, 16, 34, 46
TICK_TARGET = 6  # about this many ticks per axis


def _ticks_125(lo: float, hi: float) -> list[float]:
    # an empty span, or one whose step is too small to move a tick past lo
    # or hi (it may underflow to 0): the ticks of the unit span stand in
    if not (hi - lo) / TICK_TARGET > math.ulp(max(abs(lo), abs(hi))):
        hi = lo + 1.0
    raw = (hi - lo) / TICK_TARGET
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    first = math.ceil(lo / step) * step
    out = []
    v = first
    while v <= hi + 1e-9 * step:
        out.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return out


def _fmt(v: float) -> str:
    if v == 0.0:
        return "0"
    a = abs(v)
    if 1e-3 <= a < 1e5:
        s = f"{v:.6g}"
    else:
        s = f"{v:.2e}"
    return s


class LineChart:
    def __init__(self, title: str, xlabel: str, ylabel: str, logy: bool = False):
        self.title = title
        self.xlabel = xlabel
        self.ylabel = ylabel
        self.logy = logy
        self.series: list[tuple[str, list[float], list[float]]] = []

    def add(self, label: str, xs, ys):
        """Add a series; points with a non-finite coordinate are not drawn."""
        xs = [float(v) for v in xs]
        ys = [float(v) for v in ys]
        if len(xs) != len(ys):
            raise ValueError("series lengths differ")
        pts = [(x, y) for x, y in zip(xs, ys) if math.isfinite(x) and math.isfinite(y)]
        self.series.append((label, [x for x, _ in pts], [y for _, y in pts]))

    def _bounds(self):
        xs = [v for _, sx, _ in self.series for v in sx]
        ys = [v for _, _, sy in self.series for v in sy]
        if self.logy:
            ys = [math.log10(v) for v in ys if v > 0]
            if not ys:
                ys = [0.0, 1.0]
        if not xs:
            xs = [0.0, 1.0]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        if x1 == x0:
            x1 = x0 + 1.0
        if y1 == y0:
            y0, y1 = y0 - 0.5, y1 + 0.5
        pad = 0.04 * (y1 - y0)
        return x0, x1, y0 - pad, y1 + pad

    def render(self) -> str:
        x0, x1, y0, y1 = self._bounds()
        iw = WIDTH - ML - MR
        ih = HEIGHT - MT - MB

        def px(x: float) -> float:
            return ML + iw * (x - x0) / (x1 - x0)

        def py(y: float) -> float:
            yy = math.log10(y) if self.logy else y
            return MT + ih * (1.0 - (yy - y0) / (y1 - y0))

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">'
        ]
        parts.append(
            f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>'
        )
        parts.append(
            f'<text x="{WIDTH / 2:.1f}" y="20" font-family="sans-serif" '
            f'font-size="14" text-anchor="middle">{self.title}</text>'
        )
        # frame
        parts.append(
            f'<rect x="{ML}" y="{MT}" width="{iw}" height="{ih}" fill="none" '
            f'stroke="#444" stroke-width="1"/>'
        )
        for tx in _ticks_125(x0, x1):
            if not x0 <= tx <= x1:
                continue
            X = px(tx)
            parts.append(
                f'<line x1="{X:.1f}" y1="{MT + ih}" x2="{X:.1f}" '
                f'y2="{MT + ih + 4}" stroke="#444"/>'
            )
            parts.append(
                f'<text x="{X:.1f}" y="{MT + ih + 17}" font-family="sans-serif" '
                f'font-size="11" text-anchor="middle">{_fmt(tx)}</text>'
            )
        for ty in _ticks_125(y0, y1):
            if not y0 <= ty <= y1:
                continue
            Y = MT + ih * (1.0 - (ty - y0) / (y1 - y0))
            label = f"1e{ty:g}" if self.logy else _fmt(ty)
            parts.append(
                f'<line x1="{ML - 4}" y1="{Y:.1f}" x2="{ML}" y2="{Y:.1f}" '
                f'stroke="#444"/>'
            )
            parts.append(
                f'<line x1="{ML}" y1="{Y:.1f}" x2="{ML + iw}" y2="{Y:.1f}" '
                f'stroke="#ddd" stroke-width="0.5"/>'
            )
            parts.append(
                f'<text x="{ML - 7}" y="{Y + 4:.1f}" font-family="sans-serif" '
                f'font-size="11" text-anchor="end">{label}</text>'
            )
        parts.append(
            f'<text x="{ML + iw / 2:.1f}" y="{HEIGHT - 10}" '
            f'font-family="sans-serif" font-size="12" '
            f'text-anchor="middle">{self.xlabel}</text>'
        )
        parts.append(
            f'<text x="16" y="{MT + ih / 2:.1f}" font-family="sans-serif" '
            f'font-size="12" text-anchor="middle" '
            f'transform="rotate(-90 16 {MT + ih / 2:.1f})">{self.ylabel}</text>'
        )
        for i, (label, xs, ys) in enumerate(self.series):
            color = PALETTE[i % len(PALETTE)]
            pts = []
            for xv, yv in zip(xs, ys):
                if self.logy and yv <= 0:
                    continue
                pts.append(f"{px(xv):.2f},{py(yv):.2f}")
            if pts:
                parts.append(
                    f'<polyline points="{" ".join(pts)}" fill="none" '
                    f'stroke="{color}" stroke-width="1.6"/>'
                )
            ly = MT + 16 + 16 * i
            parts.append(
                f'<line x1="{ML + iw - 150}" y1="{ly - 4}" x2="{ML + iw - 126}" '
                f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{ML + iw - 120}" y="{ly}" font-family="sans-serif" '
                f'font-size="11">{label}</text>'
            )
        parts.append("</svg>")
        return "\n".join(parts) + "\n"
