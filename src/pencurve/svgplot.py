"""Deterministic SVG rendering of measures, hulls, and fitted curves."""

from __future__ import annotations

import numpy as np

from .curve import Polyline
from .errors import DimensionMismatchError
from .measure import DiscreteMeasure, convex_hull_2d

SIZE = 640.0  # larger side of the drawing, in SVG user units


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def render_svg(mu: DiscreteMeasure, curve: Polyline | None = None,
               comment: str | None = None) -> str:
    """SVG scene: atoms as area-proportional dots, hull dashed, curve solid.

    The viewBox is the hull bounding box padded by 5% of its larger side, so
    scaling the scene by a power of two leaves the bytes unchanged; all
    coordinates are emitted with fixed precision so identical inputs give
    identical bytes.
    """
    if mu.dim != 2:
        raise DimensionMismatchError("SVG plotting needs d=2")
    hull = convex_hull_2d(mu)
    lo = np.min(hull, axis=0)
    hi = np.max(hull, axis=0)
    pad = 0.05 * (float(np.max(hi - lo)) or 1.0)  # a single point gets a unit span
    lo = lo - pad
    hi = hi + pad
    w, h = hi - lo
    scale = SIZE / max(w, h)

    def sx(x):
        return (x - lo[0]) * scale

    def sy(y):
        return (hi[1] - y) * scale  # flip: SVG y grows downward

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(w * scale)}" '
        f'height="{_fmt(h * scale)}" viewBox="0 0 {_fmt(w * scale)} {_fmt(h * scale)}">',
    ]
    if comment:
        safe = comment.replace("--", "- -")
        lines.append(f"<!-- {safe} -->")
    lines.append(f'<rect width="{_fmt(w * scale)}" height="{_fmt(h * scale)}" fill="white"/>')

    hull_pts = " ".join(f"{_fmt(sx(p[0]))},{_fmt(sy(p[1]))}" for p in hull)
    if hull.shape[0] >= 3:
        lines.append(f'<polygon points="{hull_pts}" fill="none" stroke="#888888" '
                     'stroke-width="1" stroke-dasharray="6,4"/>')
    elif hull.shape[0] == 2:
        lines.append(f'<polyline points="{hull_pts}" fill="none" stroke="#888888" '
                     'stroke-width="1" stroke-dasharray="6,4"/>')

    max_mass = float(np.max(mu.masses))
    base_r = 0.012 * SIZE
    for x, m in zip(mu.positions, mu.masses):
        r = base_r * float(np.sqrt(m / max_mass))
        lines.append(f'<circle cx="{_fmt(sx(x[0]))}" cy="{_fmt(sy(x[1]))}" '
                     f'r="{_fmt(max(r, 0.5))}" fill="#1f6fb2" fill-opacity="0.75"/>')

    if curve is not None:
        if curve.dim != 2:
            raise DimensionMismatchError("curve must be 2-D to plot")
        pts = " ".join(f"{_fmt(sx(v[0]))},{_fmt(sy(v[1]))}" for v in curve.vertices)
        if curve.n_vertices > 1:
            lines.append(f'<polyline points="{pts}" fill="none" stroke="#d1351b" '
                         'stroke-width="2"/>')
        for v in curve.vertices:
            lines.append(f'<circle cx="{_fmt(sx(v[0]))}" cy="{_fmt(sy(v[1]))}" r="2.2" '
                         'fill="#d1351b"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
