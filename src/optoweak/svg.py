"""Minimal deterministic SVG polyline plots.

CSV is the data contract; this exists only for quick visual inspection, so
it stays dependency-free and byte-stable: fixed canvas, fixed palette, fixed
number formatting.
"""

from __future__ import annotations

import math

WIDTH, HEIGHT = 820, 560
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50
PALETTE = ("#000000", "#1a9850", "#2166ac", "#d73027", "#7b3294", "#e08214")


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def render_svg(path: str, x: list[float], series: dict[str, list[float]],
               title: str, xlabel: str, ylabel: str) -> None:
    xs = [v for v in x if not math.isnan(v)]
    ys = [v for vals in series.values() for v in vals if not math.isnan(v)]
    if not xs or not ys:
        raise ValueError("nothing to plot")
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if y1 == y0:
        y0, y1 = y0 - 1.0, y1 + 1.0
    pw = WIDTH - MARGIN_L - MARGIN_R
    ph = HEIGHT - MARGIN_T - MARGIN_B

    def px(v: float) -> float:
        return MARGIN_L + (v - x0) / (x1 - x0) * pw

    def py(v: float) -> float:
        return MARGIN_T + (y1 - v) / (y1 - y0) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH/2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
    ]
    # axes box and ticks
    parts.append(f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
                 'fill="none" stroke="#444" stroke-width="1"/>')
    for t in _ticks(x0, x1):
        parts.append(f'<line x1="{px(t):.1f}" y1="{MARGIN_T+ph}" x2="{px(t):.1f}" '
                     f'y2="{MARGIN_T+ph+5}" stroke="#444"/>')
        parts.append(f'<text x="{px(t):.1f}" y="{MARGIN_T+ph+20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{t:.4g}</text>')
    for t in _ticks(y0, y1):
        parts.append(f'<line x1="{MARGIN_L-5}" y1="{py(t):.1f}" x2="{MARGIN_L}" '
                     f'y2="{py(t):.1f}" stroke="#444"/>')
        parts.append(f'<text x="{MARGIN_L-8}" y="{py(t)+4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{t:.4g}</text>')
    parts.append(f'<text x="{MARGIN_L+pw/2:.0f}" y="{HEIGHT-10}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13">{xlabel}</text>')
    parts.append(f'<text x="18" y="{MARGIN_T+ph/2:.0f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 18 {MARGIN_T+ph/2:.0f})">{ylabel}</text>')
    # polylines
    for i, (label, vals) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x, vals)
                       if not (math.isnan(a) or math.isnan(b)))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.6"/>')
        ly = MARGIN_T + 16 + 18 * i
        parts.append(f'<line x1="{MARGIN_L+pw-150}" y1="{ly-4}" x2="{MARGIN_L+pw-125}" '
                     f'y2="{ly-4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{MARGIN_L+pw-120}" y="{ly}" font-family="sans-serif" '
                     f'font-size="12">{label}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
