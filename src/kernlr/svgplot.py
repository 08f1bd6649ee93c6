"""Minimal SVG 1.1 line plots: axes, optional log scale, legend.

Deliberately tiny; a pure function of the plotted data so outputs are
reproducible byte for byte.
"""

from __future__ import annotations

import math

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")

_WIDTH, _HEIGHT = 820, 520
_LEFT, _RIGHT, _TOP, _BOTTOM = 80, 170, 46, 58
_TICK_TARGET = 6  # about this many ticks on a linear axis


def _linear_ticks(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / _TICK_TARGET
    mag = 10.0 ** math.floor(math.log10(raw))
    step = next(s * mag for s in (1.0, 2.0, 5.0, 10.0) if s * mag >= raw)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _log_ticks(lo: float, hi: float):
    return [10.0**e for e in range(math.floor(math.log10(lo)), math.ceil(math.log10(hi)) + 1)]


def _fmt(v: float) -> str:
    if v != 0 and (abs(v) >= 1e4 or abs(v) < 1e-3):
        return f"{v:.0e}"
    return f"{v:g}"


def line_plot(path, curves, xlabel: str = "", ylabel: str = "", title: str = "") -> None:
    """Write a line plot of ``curves = [(label, xs, ys), ...]`` to ``path``.

    The y axis is logarithmic, and points with non-positive y are dropped from
    the drawing, since they have no logarithm; if that would drop everything,
    the plot falls back to a linear axis instead.
    """
    log_y = any(y > 0.0 for _, _, ys in curves for y in ys)
    cleaned = []
    for label, xs, ys in curves:
        pts = [(float(x), float(y)) for x, y in zip(xs, ys) if (not log_y) or y > 0.0]
        cleaned.append((str(label), pts))
    all_pts = [pt for _, pts in cleaned for pt in pts]
    if not all_pts:
        raise ValueError("nothing to plot: no data points given")

    x_lo = min(p[0] for p in all_pts)
    x_hi = max(p[0] for p in all_pts)
    y_lo = min(p[1] for p in all_pts)
    y_hi = max(p[1] for p in all_pts)
    if x_hi == x_lo:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi == y_lo:
        y_lo, y_hi = (y_lo / 10.0, y_hi * 10.0) if log_y else (y_lo - 0.5, y_hi + 0.5)
    scale = math.log10 if log_y else float
    s_lo, s_hi = scale(y_lo), scale(y_hi)
    y_ticks = (_log_ticks if log_y else _linear_ticks)(y_lo, y_hi)

    def sy(y):
        frac = (scale(y) - s_lo) / (s_hi - s_lo)
        return _HEIGHT - _BOTTOM - frac * (_HEIGHT - _TOP - _BOTTOM)

    def sx(x):
        frac = (x - x_lo) / (x_hi - x_lo)
        return _LEFT + frac * (_WIDTH - _LEFT - _RIGHT)

    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{(_LEFT + _WIDTH - _RIGHT) / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]

    axis_y0, axis_y1 = _HEIGHT - _BOTTOM, _TOP
    axis_x0, axis_x1 = _LEFT, _WIDTH - _RIGHT
    out.append(f'<line x1="{axis_x0}" y1="{axis_y0}" x2="{axis_x1}" y2="{axis_y0}" stroke="black"/>')
    out.append(f'<line x1="{axis_x0}" y1="{axis_y0}" x2="{axis_x0}" y2="{axis_y1}" stroke="black"/>')

    for t in _linear_ticks(x_lo, x_hi):
        if not x_lo <= t <= x_hi:
            continue
        px = sx(t)
        out.append(f'<line x1="{px:.1f}" y1="{axis_y0}" x2="{px:.1f}" y2="{axis_y0 + 5}" stroke="black"/>')
        out.append(f'<text x="{px:.1f}" y="{axis_y0 + 20}" text-anchor="middle" '
                   f'font-family="sans-serif" font-size="12">{_fmt(t)}</text>')
    for t in y_ticks:
        if not y_lo <= t <= y_hi:
            continue
        py = sy(t)
        out.append(f'<line x1="{axis_x0 - 5}" y1="{py:.1f}" x2="{axis_x0}" y2="{py:.1f}" stroke="black"/>')
        out.append(f'<line x1="{axis_x0}" y1="{py:.1f}" x2="{axis_x1}" y2="{py:.1f}" '
                   f'stroke="#dddddd" stroke-width="0.5"/>')
        out.append(f'<text x="{axis_x0 - 9}" y="{py + 4:.1f}" text-anchor="end" '
                   f'font-family="sans-serif" font-size="12">{_fmt(t)}</text>')

    out.append(f'<text x="{(axis_x0 + axis_x1) / 2:.1f}" y="{_HEIGHT - 12}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13">{xlabel}</text>')
    out.append(f'<text x="20" y="{(axis_y0 + axis_y1) / 2:.1f}" text-anchor="middle" '
               f'font-family="sans-serif" font-size="13" '
               f'transform="rotate(-90 20 {(axis_y0 + axis_y1) / 2:.1f})">{ylabel}</text>')

    legend_x = axis_x1 + 14
    for k, (label, pts) in enumerate(cleaned):
        color = _PALETTE[k % len(_PALETTE)]
        if pts:
            path_d = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
            out.append(f'<polyline points="{path_d}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        ly = _TOP + 16 + 18 * k
        out.append(f'<line x1="{legend_x}" y1="{ly - 4}" x2="{legend_x + 22}" y2="{ly - 4}" '
                   f'stroke="{color}" stroke-width="1.6"/>')
        out.append(f'<text x="{legend_x + 28}" y="{ly}" font-family="sans-serif" '
                   f'font-size="12">{label}</text>')

    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(out) + "\n")
