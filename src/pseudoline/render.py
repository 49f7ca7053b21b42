"""SVG rendering: wiring diagrams as x-monotone polylines, straight-line
arrangements as segments.  Presentation only — nothing here feeds back into
the exact computations.

A diagram's wire runs as a grid polyline: horizontal at y = 1 - t while on
track t, with a diagonal of width 1 centred on each of its crossings, the
crossing at step s at x = s.  Every such point is a multiple of 1/2, so the
drawing is computed in integer half units (2x, 2y); SCALE is even, and each
printed coordinate is an integer.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .cells import CellComplex
from .errors import DuplicateSlope, InputError, TooFewLines
from .lines import Line, LineArrangement, crossing_point
from .wiring import WiringDiagram

__all__ = ["render_diagram", "render_lines"]

FACE_FILL = {3: "#f4c7c3", 4: "#c3d7f4"}
OTHER_FILL = "#c8e6c9"
MARGIN = 1
SCALE = 48

Polyline = list[tuple[int, int]]  # breakpoints (2x, 2y), x ascending


def _fmt(v: float) -> str:
    if not math.isfinite(v):
        raise OverflowError(f"{v} is not a finite coordinate")
    return f"{v:.3f}"


def _svg(width: str, height: str, body: list[str]) -> str:
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}" viewBox="0 0 {width} {height}">')
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _wire_polylines(d: WiringDiagram, x_lo: int, x_hi: int) -> list[Polyline]:
    """Per wire (index w-1), its polyline in half units from x = x_lo to
    x = x_hi.  The diagram ends reversed: wire w on track n + 1 - w, at
    y = w - n."""
    n = d.n
    points: list[Polyline] = [[] for _ in range(n)]
    for s, ((u, v), t) in enumerate(zip(d.crossing_pairs(), d.swaps)):
        points[u - 1] += [(2 * s - 1, 2 - 2 * t), (2 * s + 1, -2 * t)]
        points[v - 1] += [(2 * s - 1, -2 * t), (2 * s + 1, 2 - 2 * t)]
    return [[(2 * x_lo, 2 - 2 * w), *points[w - 1], (2 * x_hi, 2 * (w - n))]
            for w in range(1, n + 1)]


def _face_polygon(cx: CellComplex, f: int) -> Polyline:
    """Boundary of a bounded face in half units, counter-clockwise.  Each
    edge ends at crossings; the one at step s is at (2s, 1 - 2 swaps[s]).
    In between, an edge is level on the track its wire takes at its left end."""
    swaps, cu = cx.diagram.swaps, cx.sw.cross_u
    pts: Polyline = []
    for eid in cx.boundary_cycle(f):
        s1, s2 = cx.edge_span(eid)
        t1 = swaps[s1]
        y = -2 * t1 if cu[s1] == cx.edge_wire(eid) else 2 - 2 * t1  # the upper wire moves down
        seg = [(2 * s1, 1 - 2 * t1), (2 * s1 + 1, y), (2 * s2 - 1, y), (2 * s2, 1 - 2 * swaps[s2])]
        if pts and pts[-1] != seg[0]:
            seg.reverse()
        if pts:
            seg = seg[1:]
        pts.extend(seg)
    return pts[:-1] if pts and pts[0] == pts[-1] else pts


def render_diagram(d: WiringDiagram) -> str:
    cx = CellComplex(d)
    n, steps = d.n, d.num_steps
    x_lo, x_hi = -MARGIN, steps + MARGIN
    y_lo, y_hi = -(n - 1) - MARGIN, MARGIN
    half = SCALE // 2

    def coords(pts: Polyline) -> str:  # every value a non-negative integer
        return " ".join(f"{(x - 2 * x_lo) * half}.000,{(2 * y_hi - y) * half}.000" for x, y in pts)

    body = []
    for f in cx.bounded_faces():
        sides = cx.face_side_count(f)
        body.append(f'<polygon points="{coords(_face_polygon(cx, f))}" '
                    f'fill="{FACE_FILL.get(sides, OTHER_FILL)}" stroke="none" '
                    f'class="face side-{sides}"/>')
    for w, pts in enumerate(_wire_polylines(d, x_lo, x_hi), 1):
        body.append(f'<polyline points="{coords(pts)}" fill="none" stroke="#333" '
                    f'stroke-width="2" class="wire wire-{w}"/>')
    return _svg(f"{(x_hi - x_lo) * SCALE}.000", f"{(y_hi - y_lo) * SCALE}.000", body)


def render_lines(arr: LineArrangement) -> str:
    """SVG of the lines, framed around all their crossings.

    Raises TooFewLines for fewer than two lines, which have no crossing,
    DuplicateSlope for parallel (or equal) lines, which have none either, and
    InputError for coordinates beyond the range of the drawing's floats.
    """
    lines = arr.lines
    if len(lines) < 2:
        raise TooFewLines(f"need at least 2 lines to render, got {len(lines)}")
    if len({l.slope for l in lines}) != len(lines):
        raise DuplicateSlope("two lines share a slope and never cross")
    try:
        return _lines_svg(lines)
    except OverflowError as exc:
        raise InputError(f"coordinates too large to draw: {exc}") from exc


def _lines_svg(lines: tuple[Line, ...]) -> str:
    xs, ys = [], []
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            x, y = crossing_point(lines[i], lines[j])
            xs.append(x)
            ys.append(y)
    pad = max(max(xs) - min(xs), max(ys) - min(ys), Fraction(1)) / 4
    x_lo, x_hi = min(xs) - pad, max(xs) + pad
    y_lo, y_hi = min(ys) - pad, max(ys) + pad
    scale = SCALE * 8 / float(x_hi - x_lo)

    def tx(x):
        return (float(x) - float(x_lo)) * scale

    def ty(y):
        return (float(y_hi) - float(y)) * scale

    body = []
    for i, l in enumerate(lines):
        body.append(
            f'<line x1="{_fmt(tx(x_lo))}" y1="{_fmt(ty(l.y_at(x_lo)))}" '
            f'x2="{_fmt(tx(x_hi))}" y2="{_fmt(ty(l.y_at(x_hi)))}" '
            f'stroke="#333" stroke-width="1.5" class="line line-{i}"/>'
        )
    return _svg(_fmt(float(x_hi - x_lo) * scale), _fmt(float(y_hi - y_lo) * scale), body)
