"""Deterministic SVG rendering of the normalized real figure."""

from __future__ import annotations

from .geometry import Arrangement, chambers, sharp_pairs
from .local_system import LocalSystem, resonant_points

__all__ = ["render_svg"]

_STYLE = """
  line.arr { stroke: #345; stroke-width: 0.8; fill: none; }
  line.sharp { stroke: #b33; }
  polygon.chamber { fill: #7aa6d8; fill-opacity: 0.25; stroke: none; }
  circle.pt { fill: #222; }
  circle.resonant { fill: #d22; }
  text { font-family: sans-serif; }
"""


def _fmt(x) -> str:
    return f"{float(x):.4f}"


def render_svg(arr: Arrangement, system: LocalSystem | None = None) -> str:
    """SVG of the figure: lines, points, shaded bounded chambers.

    Resonant points are highlighted when a system is given; lines belonging
    to some sharp pair carry the class ``sharp``.  The arrangement must be
    normalized (the command-line tool normalizes before rendering).
    """
    pts = arr.points
    if pts:
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
    else:
        x0 = x1 = y0 = y1 = 0
    pad = max(x1 - x0, y1 - y0, 1) / 2
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad

    res = resonant_points(arr, system).point_ids if system is not None else ()
    pairs = sharp_pairs(arr)
    sharp_lines = sorted({i for pair in pairs for i in pair})
    annot = ";".join(f"({i},{j})" for i, j in pairs)

    parts = []
    w, h = float(x1 - x0), float(y1 - y0)
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{_fmt(x0)} {_fmt(-y1)} {_fmt(w)} {_fmt(h)}">'
    )
    parts.append(f"<style>{_STYLE}</style>")
    parts.append(f"<title>arrangement of {arr.n} lines; sharp pairs: {annot or 'none'}</title>")

    for ch in chambers(arr):
        if not ch.bounded:
            continue
        corners = " ".join(
            f"{_fmt(arr.points[v].x)},{_fmt(-arr.points[v].y)}" for v in ch.vertex_ids
        )
        parts.append(f'<polygon class="chamber" points="{corners}"/>')

    for i, line in enumerate(arr.lines):
        ya = line.slope * x0 + line.intercept
        yb = line.slope * x1 + line.intercept
        cls = "arr sharp" if i in sharp_lines else "arr"
        parts.append(
            f'<line class="{cls}" x1="{_fmt(x0)}" y1="{_fmt(-ya)}" '
            f'x2="{_fmt(x1)}" y2="{_fmt(-yb)}"/>'
        )

    r = max(w, h) / 120
    for p in pts:
        cls = "pt resonant" if p.index in res else "pt"
        parts.append(
            f'<circle class="{cls}" cx="{_fmt(p.x)}" cy="{_fmt(-p.y)}" r="{_fmt(r)}"/>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
