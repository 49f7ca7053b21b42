"""Exact rational grid embedding of a wiring diagram.

Wire w runs as an x-monotone polyline: horizontal at y = -(track) between
crossings, with a diagonal of width 1 centred on each of its crossings.  The
crossing at step s sits at x = s.  All coordinates are Fractions; nothing
here ever touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cells import CellComplex
from .errors import OnBoundary
from .wiring import WiringDiagram, validate_wiring

__all__ = ["GridEmbedding", "grid_embedding", "face_containing", "extract_diagram"]

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class GridEmbedding:
    diagram: WiringDiagram
    # per wire (index w-1): tuple of breakpoints (x, y); horizontal outside
    polylines: tuple[tuple[tuple[Fraction, Fraction], ...], ...]
    # per face id: an interior point
    witness: tuple[tuple[Fraction, Fraction], ...]

    def wire_y(self, wire: int, x: Fraction) -> Fraction:
        return polyline_y(self.polylines[wire - 1], x, -(wire - 1))


def polyline_y(points, x, y_default) -> Fraction:
    """Evaluate an x-monotone breakpoint polyline, horizontal at both ends."""
    if not points:
        return Fraction(y_default)
    if x <= points[0][0]:
        return points[0][1]
    if x >= points[-1][0]:
        return points[-1][1]
    for (x1, y1), (x2, y2) in zip(points, points[1:]):
        if x1 <= x <= x2:
            if y1 == y2 or x == x1:
                return y1
            return y1 + (y2 - y1) * (x - x1) / (x2 - x1)
    raise AssertionError("unreachable: x-monotone scan failed")


def grid_embedding(d: WiringDiagram, complex: CellComplex | None = None) -> GridEmbedding:
    cx = complex if complex is not None else CellComplex(d)
    n = d.n
    perm = list(range(1, n + 1))
    points: list[list[tuple[Fraction, Fraction]]] = [[] for _ in range(n)]
    for s, t in enumerate(d.swaps):
        u, v = perm[t - 1], perm[t]
        xs = Fraction(s)
        points[u - 1].append((xs - HALF, Fraction(-(t - 1))))
        points[u - 1].append((xs + HALF, Fraction(-t)))
        points[v - 1].append((xs - HALF, Fraction(-t)))
        points[v - 1].append((xs + HALF, Fraction(-(t - 1))))
        perm[t - 1], perm[t] = v, u

    sw = cx.sw
    witness = []
    for f in range(cx.num_faces):
        r = sw.face_region[f]
        y = HALF - r
        op, cl = sw.face_open[f], sw.face_close[f]
        if op < 0 and cl < 0:
            x = Fraction(0)
        elif op < 0:
            x = Fraction(cl - 1)
        elif cl < 0:
            x = Fraction(op + 1)
        else:
            x = Fraction(op + cl, 2)
        witness.append((x, y))

    return GridEmbedding(d, tuple(tuple(p) for p in points), tuple(witness))


def face_containing(cx: CellComplex, point, emb: GridEmbedding) -> int:
    """The face whose region contains ``point``; OnBoundary if on a wire."""
    x, y = Fraction(point[0]), Fraction(point[1])
    above = 0
    for w in range(1, cx.n + 1):
        yw = emb.wire_y(w, x)
        if yw == y:
            raise OnBoundary(f"point on wire {w}")
        if yw > y:
            above += 1
    return _face_in_region(cx, above, x)


def _face_in_region(cx: CellComplex, region: int, x: Fraction) -> int:
    """The face of ``region`` whose open x-interval holds ``x``.

    Faces in one region have disjoint open intervals, so at most one matches.
    """
    sw = cx.sw
    for f in range(cx.num_faces):
        if sw.face_region[f] != region:
            continue
        op, cl = sw.face_open[f], sw.face_close[f]
        if (op < 0 or op < x) and (cl < 0 or x < cl):
            return f
    raise AssertionError(f"no face in region {region} at x={x}")


def extract_diagram(emb: GridEmbedding) -> WiringDiagram:
    """Recover the wiring diagram from polyline geometry alone.

    Finds every pairwise polyline intersection exactly, sorts by x, and
    replays the swaps.  Used as the round-trip check on embeddings.
    """
    n = emb.diagram.n
    polys = [list(emb.polylines[w - 1]) for w in range(1, n + 1)]
    defaults = [Fraction(-(w - 1)) for w in range(1, n + 1)]
    crossings = []
    for i in range(n):
        for j in range(i + 1, n):
            x = _poly_crossing_x(polys[i], defaults[i], polys[j], defaults[j])
            crossings.append((x, i + 1, j + 1))
    crossings.sort(key=lambda c: c[0])
    xs = [c[0] for c in crossings]
    assert len(set(xs)) == len(xs), "coincident crossing x-coordinates"
    order = list(range(1, n + 1))  # top to bottom at x = -infinity
    swaps = []
    for _, a, b in crossings:
        pa, pb = order.index(a), order.index(b)
        if pa > pb:
            pa, pb = pb, pa
        assert pb == pa + 1, "crossing wires not adjacent at crossing time"
        order[pa], order[pb] = order[pb], order[pa]
        swaps.append(pa + 1)
    return validate_wiring(n, swaps)


def _poly_crossing_x(p1, d1, p2, d2) -> Fraction:
    """x of the unique crossing of two x-monotone polylines (exact)."""
    xs = sorted({x for x, _ in p1} | {x for x, _ in p2})
    if not xs:
        raise AssertionError("two horizontal lines never cross")
    probes = [xs[0] - 1] + xs + [xs[-1] + 1]

    def diff(x):
        return polyline_y(p1, x, d1) - polyline_y(p2, x, d2)

    vals = [diff(x) for x in probes]
    for (xa, va), (xb, vb) in zip(zip(probes, vals), zip(probes[1:], vals[1:])):
        if va == 0:
            return xa
        if (va < 0) != (vb < 0) or vb == 0:
            if vb == 0:
                return xb
            # linear within [xa, xb]: both polylines have no breakpoints inside
            return xa + (xb - xa) * (-va) / (vb - va)
    raise AssertionError("polylines do not cross")
