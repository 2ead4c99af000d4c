"""SVG rendering of instances and matchings.

Presentation only: reports never read anything back from these files.
Circle instances draw the unit circle scaled into a 640x640 viewport;
plane instances are fitted by bounding box.  Coordinates are written with
three decimals.
"""
from __future__ import annotations

from .geometry import CIRCLE, Instance, Matching, Point

SIZE = 640
MARGIN = 40


def _screen_coords(instance: Instance) -> dict[int, tuple[float, float]]:
    # a circle point's x/y are the float cosine and sine of its angle
    raw = {p.arrival_index: (float(p.x), float(p.y)) for p in instance.points}
    if instance.geometry == CIRCLE:
        lo_x = lo_y = -1.0
        hi_x = hi_y = 1.0
    else:
        lo_x = min(v[0] for v in raw.values())
        hi_x = max(v[0] for v in raw.values())
        lo_y = min(v[1] for v in raw.values())
        hi_y = max(v[1] for v in raw.values())
    span = max(hi_x - lo_x, hi_y - lo_y) or 1.0
    scale = (SIZE - 2 * MARGIN) / span

    def to_screen(xy):
        x, y = xy
        return (
            MARGIN + (x - lo_x) * scale,
            SIZE - MARGIN - (y - lo_y) * scale,  # y grows upward
        )

    return {k: to_screen(v) for k, v in raw.items()}


def _fill(p: Point) -> str:
    if p.color == "blue":
        return "#2060c0"
    if p.color == "red":
        return "#c03030"
    return "#333333"


def render_svg(instance: Instance, matching: Matching | None = None) -> str:
    coords = _screen_coords(instance)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SIZE}" height="{SIZE}" '
        f'viewBox="0 0 {SIZE} {SIZE}">',
        f'<rect width="{SIZE}" height="{SIZE}" fill="white"/>',
    ]
    if instance.geometry == CIRCLE:
        r = (SIZE - 2 * MARGIN) / 2
        parts.append(
            f'<circle cx="{SIZE / 2:.3f}" cy="{SIZE / 2:.3f}" r="{r:.3f}" '
            'fill="none" stroke="#cccccc"/>'
        )
    if matching is not None:
        for a, b in matching:
            xa, ya = coords[a]
            xb, yb = coords[b]
            parts.append(
                f'<line x1="{xa:.3f}" y1="{ya:.3f}" x2="{xb:.3f}" y2="{yb:.3f}" '
                'stroke="#222222" stroke-width="1.5"/>'
            )
    for p in instance.points:
        x, y = coords[p.arrival_index]
        parts.append(f'<circle cx="{x:.3f}" cy="{y:.3f}" r="4" fill="{_fill(p)}"/>')
        parts.append(
            f'<text x="{x + 6:.3f}" y="{y - 6:.3f}" font-size="11" '
            f'fill="#555555">{p.arrival_index}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)


def write_svg(path, instance: Instance, matching: Matching | None = None) -> None:
    with open(path, "w") as fh:
        fh.write(render_svg(instance, matching))
        fh.write("\n")
