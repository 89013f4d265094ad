"""Minimal deterministic SVG line plots (axes, polylines, legend).

Hand-rolled so re-runs with the same data produce byte-identical files;
the CSV remains the authoritative output.
"""

from __future__ import annotations

import sys
from typing import Sequence

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#17becf", "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22"]

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _span(lo: float, hi: float) -> tuple[float, float]:
    """The axis range of data from lo to hi.  A single value is widened by
    0.5 each way, or, where that rounds back to it (from about 4.5e15 in
    magnitude), by a sixteenth of its magnitude, clipped to the finite
    doubles; so for every finite value the range is not empty, and it and
    its tick steps are finite."""
    if hi != lo:
        return lo, hi
    if lo - 0.5 < hi + 0.5:
        return lo - 0.5, hi + 0.5
    step = abs(lo) / 16
    return (max(lo - step, -sys.float_info.max),
            min(hi + step, sys.float_info.max))


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def render_line_svg(series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
                    title: str, x_label: str, y_label: str) -> str:
    """Render labeled (x, y) series as an SVG document string."""
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = _span(min(xs_all), max(xs_all))
    y_lo, y_hi = _span(min(ys_all), max(ys_all))
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def px(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def py(y: float) -> float:
        return _H - _MB - (y - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.0f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{_escape(title)}</text>',
    ]
    # axes box and ticks
    parts.append(
        f'<rect x="{_ML}" y="{_MT}" width="{_W - _ML - _MR}" '
        f'height="{_H - _MT - _MB}" fill="none" stroke="black"/>')
    for xt in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{px(xt):.1f}" y1="{_H - _MB}" '
                     f'x2="{px(xt):.1f}" y2="{_H - _MB + 5}" stroke="black"/>')
        parts.append(f'<text x="{px(xt):.1f}" y="{_H - _MB + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{xt:.4g}</text>')
    for yt in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{_ML - 5}" y1="{py(yt):.1f}" '
                     f'x2="{_ML}" y2="{py(yt):.1f}" stroke="black"/>')
        parts.append(f'<text x="{_ML - 8}" y="{py(yt):.1f}" text-anchor="end" '
                     f'dominant-baseline="middle" font-family="sans-serif" '
                     f'font-size="11">{yt:.4g}</text>')
    parts.append(f'<text x="{_W / 2:.0f}" y="{_H - 12}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12">{_escape(x_label)}</text>')
    parts.append(f'<text x="16" y="{_H / 2:.0f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 16 {_H / 2:.0f})">{_escape(y_label)}</text>')

    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" '
                         f'fill="{color}"/>')
        ly = _MT + 16 + 16 * i
        parts.append(f'<line x1="{_ML + 10}" y1="{ly}" x2="{_ML + 34}" '
                     f'y2="{ly}" stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_ML + 40}" y="{ly + 4}" '
                     f'font-family="sans-serif" font-size="11">{_escape(label)}</text>')

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))
