"""Lossy SVG rendering of realizations, for human inspection only.

Coordinates are converted to floats; nothing downstream may consume the
output for verification.  Intervals are drawn as stacked bars, polygons
as translucent fills with a neuron label at the centroid.
"""

from __future__ import annotations

from .geometry import Realization, validate

_PALETTE = [
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
]

_SCALE = 40.0
_PAD = 30.0


def _color(i: int) -> str:
    return _PALETTE[i % len(_PALETTE)]


def render_svg(realization: Realization) -> str:
    """The SVG text of a valid realization; ValueError naming the problems
    that validate finds otherwise."""
    problems = validate(realization)
    if problems:
        raise ValueError("invalid realization: " + "; ".join(problems))
    if realization.dimension == 1:
        return _render_1d(realization)
    return _render_2d(realization)


def _render_1d(r: Realization) -> str:
    neurons = sorted(r.regions)
    # a realization with no regions draws as padding alone
    lo = min((float(iv.lo) for iv in r.regions.values()), default=0.0)
    hi = max((float(iv.hi) for iv in r.regions.values()), default=0.0)
    row_h = 26.0
    width = (hi - lo) * _SCALE + 2 * _PAD
    height = len(neurons) * row_h + 2 * _PAD
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">'
    ]
    for row, k in enumerate(neurons):
        iv = r.regions[k]
        x0 = _PAD + (float(iv.lo) - lo) * _SCALE
        x1 = _PAD + (float(iv.hi) - lo) * _SCALE
        y = _PAD + row * row_h
        parts.append(
            f'<rect x="{x0:.2f}" y="{y:.2f}" width="{x1 - x0:.2f}" height="16" '
            f'fill="{_color(row)}" fill-opacity="0.7" rx="3"/>'
        )
        parts.append(
            f'<text x="{x0 - 8:.2f}" y="{y + 13:.2f}" font-size="13" '
            f'text-anchor="end" font-family="sans-serif">{k}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _render_2d(r: Realization) -> str:
    neurons = sorted(r.regions)
    xs = [float(x) for poly in r.regions.values() for x, _y in poly.vertices]
    ys = [float(y) for poly in r.regions.values() for _x, y in poly.vertices]
    lo_x, hi_x = min(xs, default=0.0), max(xs, default=0.0)
    lo_y, hi_y = min(ys, default=0.0), max(ys, default=0.0)
    width = (hi_x - lo_x) * _SCALE + 2 * _PAD
    height = (hi_y - lo_y) * _SCALE + 2 * _PAD

    def to_px(x, y):
        # flip y so larger y is drawn higher
        return (_PAD + (float(x) - lo_x) * _SCALE, _PAD + (hi_y - float(y)) * _SCALE)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">'
    ]
    for i, k in enumerate(neurons):
        poly = r.regions[k]
        pts = " ".join(f"{px:.2f},{py:.2f}" for px, py in
                       (to_px(x, y) for x, y in poly.vertices))
        parts.append(
            f'<polygon points="{pts}" fill="{_color(i)}" fill-opacity="0.35" '
            f'stroke="{_color(i)}" stroke-width="1.5"/>'
        )
        cx = sum(float(x) for x, _y in poly.vertices) / len(poly.vertices)
        cy = sum(float(y) for _x, y in poly.vertices) / len(poly.vertices)
        px, py = to_px(cx, cy)
        parts.append(
            f'<text x="{px:.2f}" y="{py:.2f}" font-size="14" '
            f'text-anchor="middle" font-family="sans-serif">{k}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
