"""Static SVG overlays of HN polygons.

Up to eight polygons are drawn on one shared integer grid, of at most
:data:`MAX_GRID_LINES` lines, with marked vertices and a legend naming each
bundle in the text grammar.  Output is a pure function of the input:
coordinates are integers, colors come from a fixed palette, and no
timestamps or randomness enter the document, so the bytes are reproducible.
This is a report artifact, not an interface.
"""

from __future__ import annotations

from typing import Sequence

from .bundle import HNBundle, PreconditionError, format_bundle

__all__ = ["render_svg", "write_svg", "MAX_BUNDLES", "MAX_GRID_LINES"]

MAX_BUNDLES = 8
# The grid has a line per unit of rank and per unit of degree, so without a cap a
# short input of huge rank would build a document in proportion to that rank.
MAX_GRID_LINES = 2_000

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#7f7f7f",
)
_SCALE = 48
_MARGIN = 40


def render_svg(bundles: Sequence[HNBundle]) -> str:
    """Build the SVG document text for an overlay of HN polygons."""
    if len(bundles) > MAX_BUNDLES:
        raise PreconditionError(f"at most {MAX_BUNDLES} bundles per overlay, got {len(bundles)}")

    xs = [v.x for b in bundles for v in b.polygon] or [0]
    ys = [v.y for b in bundles for v in b.polygon] or [0]
    x_max = max(max(xs), 1)
    y_min, y_max = min(min(ys), 0), max(max(ys), 1)
    lines = x_max + 1 + y_max - y_min + 1
    if lines > MAX_GRID_LINES:
        raise PreconditionError(f"the grid would need {lines} lines, more than the cap of "
                                f"{MAX_GRID_LINES}")

    def px(x: int) -> int:
        return _MARGIN + x * _SCALE

    def py(y: int) -> int:
        return _MARGIN + (y_max - y) * _SCALE

    width = px(x_max) + _MARGIN + 220
    height = py(y_min) + _MARGIN

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for gx in range(x_max + 1):
        parts.append(
            f'<line x1="{px(gx)}" y1="{py(y_max)}" x2="{px(gx)}" y2="{py(y_min)}" '
            f'stroke="#dddddd" stroke-width="1"/>'
        )
    for gy in range(y_min, y_max + 1):
        heavy = gy == 0
        stroke = "#888888" if heavy else "#dddddd"
        parts.append(
            f'<line x1="{px(0)}" y1="{py(gy)}" x2="{px(x_max)}" y2="{py(gy)}" '
            f'stroke="{stroke}" stroke-width="1"/>'
        )
    for idx, bundle in enumerate(bundles):
        color = _PALETTE[idx]
        points = " ".join(f"{px(v.x)},{py(v.y)}" for v in bundle.polygon)
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        for v in bundle.polygon:
            parts.append(f'<circle cx="{px(v.x)}" cy="{py(v.y)}" r="3" fill="{color}"/>')
        ly = _MARGIN + idx * 20
        lx = px(x_max) + 20
        parts.append(f'<rect x="{lx}" y="{ly - 9}" width="12" height="12" fill="{color}"/>')
        parts.append(
            f'<text x="{lx + 18}" y="{ly + 2}" font-family="monospace" font-size="13">'
            f"{format_bundle(bundle)}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(bundles: Sequence[HNBundle], path: str) -> None:
    document = render_svg(bundles)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(document)
