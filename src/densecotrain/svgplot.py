"""Minimal deterministic SVG line plots: fixed canvas, fixed palette,
fixed number formatting, no timestamps, so identical inputs give
byte-identical files."""

from __future__ import annotations

from typing import Sequence
from xml.sax.saxutils import escape

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_W, _H = 640, 400
_ML, _MR, _MT, _MB = 64, 16, 40, 48  # margins: left, right, top, bottom


def _fmt(v: float) -> str:
    return f"{v:.4f}".rstrip("0").rstrip(".") or "0"


def _ticks(lo: float, hi: float) -> list[float]:
    """Five evenly spaced ticks from lo to hi."""
    if hi <= lo:
        return [lo]
    step = (hi - lo) / 4
    return [lo + i * step for i in range(5)]


def line_plot(
    series: Sequence[tuple[str, Sequence[tuple[float, float]]]],
    title: str,
    xlabel: str,
    ylabel: str,
    y_range: tuple[float, float] | None = None,
) -> str:
    """Render named (x, y) polylines with axes, ticks, and a legend."""
    points = [p for _, pts in series for p in pts]
    if not points:
        raise ValueError("line_plot needs at least one point")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_range is not None:
        y_lo, y_hi = y_range
    else:
        y_lo, y_hi = min(ys), max(ys)
        if y_hi == y_lo:
            y_lo, y_hi = y_lo - 0.5, y_hi + 0.5
        pad = 0.05 * (y_hi - y_lo)
        y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def sx(x: float) -> float:
        return _ML + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y: float) -> float:
        return _MT + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{escape(title)}</text>',
    ]
    # axes
    out.append(
        f'<line x1="{_ML}" y1="{_MT + plot_h}" x2="{_ML + plot_w}" '
        f'y2="{_MT + plot_h}" stroke="black" stroke-width="1"/>'
    )
    out.append(
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + plot_h}" '
        f'stroke="black" stroke-width="1"/>'
    )
    for tx in _ticks(x_lo, x_hi):
        px = sx(tx)
        out.append(
            f'<line x1="{px:.1f}" y1="{_MT + plot_h}" x2="{px:.1f}" '
            f'y2="{_MT + plot_h + 5}" stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{px:.1f}" y="{_MT + plot_h + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_fmt(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        py = sy(ty)
        out.append(
            f'<line x1="{_ML - 5}" y1="{py:.1f}" x2="{_ML}" y2="{py:.1f}" '
            f'stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_ML - 8}" y="{py + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_fmt(ty)}</text>'
        )
    out.append(
        f'<text x="{_ML + plot_w / 2:.1f}" y="{_H - 10}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{escape(xlabel)}</text>'
    )
    out.append(
        f'<text x="16" y="{_MT + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {_MT + plot_h / 2:.1f})">{escape(ylabel)}</text>'
    )
    # series
    for i, (name, pts) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        if len(pts) == 1:
            x, y = pts[0]
            out.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="3" fill="{color}"/>'
            )
        else:
            out.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
        ly = _MT + 8 + 16 * i
        out.append(
            f'<line x1="{_ML + plot_w - 130}" y1="{ly}" x2="{_ML + plot_w - 110}" '
            f'y2="{ly}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{_ML + plot_w - 104}" y="{ly + 4}" '
            f'font-family="sans-serif" font-size="11">{escape(name)}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def pr_curve_plot(
    curves: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str,
) -> str:
    """Precision-recall curves on the fixed [0, 1] square."""
    series = [
        (name, list(zip(recall, precision)))
        for name, recall, precision in curves
    ]
    return line_plot(series, title, "recall", "precision", y_range=(0.0, 1.05))
