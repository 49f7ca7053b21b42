"""Straight-line realization of diagrams whose every wire carries the (>=5)-gon.

The model.  Let P be the central n-gon of an Im diagram d, and read its
bead word s off P: s_w = 1 when P lies above wire w.  Wire W, for
1 <= W <= n, becomes the line tangent to the unit circle with slope
(p^2 - q^2) / (2pq) and intercept -(p^2 + q^2) / (2pq) when s_W = 1,
+(p^2 + q^2) / (2pq) when s_W = 0, where p = W and q = n + 1 - W.  With
t = p / q = tan(phi), that is the tangent at angle 2 * phi in (0, pi), or
its antipode when s_W = 1, so its coordinates are rational.  Slopes rise
with W, so line W - 1 carries wire W.

Why the model depends on s alone.  The tangent at angle alpha meets the
tangent at angle beta at signed position tan((beta - alpha) / 2) along it,
which is monotone in beta.  So every local sequence of the model is fixed
by the cyclic order of the tangent points, which is the s = 0 wires
ascending, then the s = 1 wires ascending.

That every Im diagram equals its model is a conjecture: it holds on every
Im commutation class with n <= 8, each with its own word, and is proven
nowhere past n = 8.  So ``realize_im`` closes with a labelled check of the
model against d, which guards every output.

``select_insertion_frame`` is the paper's inductive deletion order, kept
for its lemma; ``realize_im`` does not use it.
"""

from __future__ import annotations

from fractions import Fraction

from .analysis import critical_flags, is_in_Im
from .cells import CellComplex
from .errors import NoConsecutiveTriple, NotInIm, WrongLabels
from .lines import Line, LineArrangement, lines_to_diagram
from .wiring import WiringDiagram

__all__ = ["select_insertion_frame", "realize_im", "BASE_N"]

BASE_N = 5  # Im starts at 5 wires; a 6-wire Im diagram keeps a frame to delete


def select_insertion_frame(cx: CellComplex) -> list[int]:
    """The paper's inductive deletion order down to BASE_N wires, outermost
    first; NotInIm if not in Im.  ``realize_im`` does not use it.  Each is
    the middle wire of the first run of three non-critical edges of P from
    its leftmost vertex.  The face across it is a triangle that merges into
    P: P's cycle loses the wire and keeps its side of the others, so the
    crossings of ``cx`` serve every level."""
    im = is_in_Im(cx.diagram, cx)
    if not im.member:
        raise NotInIm(f"the {cx.n}-wire diagram has no all-wire (>=5)-gon")
    # P's edges, one per wire left, from P's leftmost vertex as boundary_cycle
    # lists them.  A deletion keeps that start: the triangle's apex lies right
    # of the vertex, or, when the wire passes through it, left of it and
    # between the list's two ends.
    cycle = list(cx.boundary_cycle(im.face))
    order = []
    while len(cycle) > BASE_N:
        m = len(cycle)
        critical = critical_flags(cx, cycle, im.face)
        i = next((i for i in range(m) if not any(critical[(i + j) % m] for j in range(3))), None)
        if i is None:
            raise NoConsecutiveTriple(f"no three consecutive non-critical edges on the {m}-gon")
        order.append(cx.edge_wire(cycle.pop((i + 1) % m)))
    return order


def realize_im(d: WiringDiagram) -> LineArrangement:
    """The tangent model of ``d``, line i on wire i + 1; NotInIm if ``d`` is
    not in Im, WrongLabels if the model's diagram is not ``d`` itself."""
    cx = CellComplex(d)
    im = is_in_Im(d, cx)
    if not im.member:
        raise NotInIm(f"the {d.n}-wire diagram has no all-wire (>=5)-gon")
    n = d.n
    # above[w - 1]: s_w = 1, P lies above wire w: P is the upper face of one of w's edges
    above = [im.face in cx.sw.upper_face[w * n : (w + 1) * n] for w in range(n)]
    del cx  # only the bead word is read from it; free it before the closing sweep
    lines = []
    for p in range(1, n + 1):
        q = n + 1 - p
        c = Fraction(p * p + q * q, 2 * p * q)
        lines.append(Line(Fraction(p * p - q * q, 2 * p * q), -c if above[p - 1] else c))
    arr = LineArrangement(tuple(lines))
    res = lines_to_diagram(arr)
    if (any(res.wire_of_line[i] != i + 1 for i in range(n))
            or res.diagram.local_sequences() != d.local_sequences()):
        s = "".join("1" if a else "0" for a in above)
        raise WrongLabels(f"the tangent model of bead word {s} is not the {n}-wire diagram: "
                          f"a counterexample to the tangent-model conjecture")
    return arr
