"""Minimal SVG emission for curves and histograms.

Presentation-only output: deterministic bytes, no plotting dependency.
"""

from __future__ import annotations

import numpy as np

from .atomic import atomic_open

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")
WIDTH, HEIGHT = 640, 420
MARGIN = 56


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo if hi > lo else 1.0
    return out_lo + (np.asarray(values, dtype=np.float64) - lo) / span * (out_hi - out_lo)


def _axes(parts, x_lo, x_hi, y_lo, y_hi, title, x_label, y_label):
    parts.append(f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    parts.append(f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
                 f'y2="{HEIGHT - MARGIN}" stroke="black"/>')
    parts.append(f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" '
                 f'y2="{HEIGHT - MARGIN}" stroke="black"/>')
    parts.append(f'<text x="{WIDTH / 2:.1f}" y="20" text-anchor="middle" '
                 f'font-size="14">{title}</text>')
    parts.append(f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle" '
                 f'font-size="12">{x_label}</text>')
    parts.append(f'<text x="16" y="{HEIGHT / 2:.1f}" text-anchor="middle" font-size="12" '
                 f'transform="rotate(-90 16 {HEIGHT / 2:.1f})">{y_label}</text>')
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        xp = MARGIN + frac * (WIDTH - 2 * MARGIN)
        yp = HEIGHT - MARGIN - frac * (HEIGHT - 2 * MARGIN)
        parts.append(f'<text x="{xp:.1f}" y="{HEIGHT - MARGIN + 16}" text-anchor="middle" '
                     f'font-size="10">{xv:.3g}</text>')
        parts.append(f'<text x="{MARGIN - 6}" y="{yp:.1f}" text-anchor="end" '
                     f'font-size="10">{yv:.3g}</text>')


def line_plot(path, series, title="", x_label="", y_label="") -> None:
    """Write a multi-series line plot; ``series`` is [(label, xs, ys), ...]."""
    xs_all = np.concatenate([np.asarray(s[1], dtype=np.float64) for s in series])
    ys_all = np.concatenate([np.asarray(s[2], dtype=np.float64) for s in series])
    finite = np.isfinite(ys_all)
    x_lo, x_hi = float(xs_all.min()), float(xs_all.max())
    y_lo, y_hi = float(ys_all[finite].min()), float(ys_all[finite].max())
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}">']
    _axes(parts, x_lo, x_hi, y_lo, y_hi, title, x_label, y_label)
    for i, (label, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        ys = np.asarray(ys, dtype=np.float64)
        keep = np.isfinite(ys)
        px = _scale(np.asarray(xs, dtype=np.float64)[keep], x_lo, x_hi,
                    MARGIN, WIDTH - MARGIN)
        py = _scale(ys[keep], y_lo, y_hi, HEIGHT - MARGIN, MARGIN)
        points = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px, py))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{WIDTH - MARGIN + 4}" y="{MARGIN + 14 * i + 10}" '
                     f'font-size="11" fill="{color}">{label}</text>')
    parts.append("</svg>")
    with atomic_open(path) as fh:
        fh.write("\n".join(parts) + "\n")


def bar_chart(path, edges, counts, title="", x_label="", y_label="count") -> None:
    """Write a histogram as vertical bars over the given bin edges."""
    counts = np.asarray(counts, dtype=np.float64)
    edges = np.asarray(edges, dtype=np.float64)
    x_lo, x_hi = float(edges[0]), float(edges[-1])
    y_hi = float(counts.max()) if counts.size and counts.max() > 0 else 1.0
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}">']
    _axes(parts, x_lo, x_hi, 0.0, y_hi, title, x_label, y_label)
    for j, count in enumerate(counts):
        px0 = float(_scale(edges[j], x_lo, x_hi, MARGIN, WIDTH - MARGIN))
        px1 = float(_scale(edges[j + 1], x_lo, x_hi, MARGIN, WIDTH - MARGIN))
        py = float(_scale(count, 0.0, y_hi, HEIGHT - MARGIN, MARGIN))
        parts.append(f'<rect x="{px0:.2f}" y="{py:.2f}" width="{px1 - px0:.2f}" '
                     f'height="{HEIGHT - MARGIN - py:.2f}" fill="#1f77b4" '
                     f'stroke="white" stroke-width="0.5"/>')
    parts.append("</svg>")
    with atomic_open(path) as fh:
        fh.write("\n".join(parts) + "\n")
