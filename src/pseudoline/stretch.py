"""Straight-line realization of diagrams whose every wire carries the (>=5)-gon.

The model.  Let d be an Im diagram with central n-gon P, its wires 1..n top
to bottom at the left, and read its bead word s off P: s_w = 1 when P lies
above wire w.  Wire W, for 1 <= W <= n, becomes the line tangent to the unit
circle with slope (p^2 - q^2) / (2pq) and intercept -(p^2 + q^2) / (2pq) when
s_W = 1, +(p^2 + q^2) / (2pq) when s_W = 0, where p = W and q = n + 1 - W.
With t = p / q = tan(phi), that is the tangent at angle 2 * phi in (0, pi),
or its antipode when s_W = 1, so its coordinates are rational.  Slopes rise
with W, so line W - 1 carries wire W.

The triple rule.  For wires a < b < c of d, wire b meets a before c exactly
when s_a + s_c > s_b.  Proof: P has an edge on each of a, b and c, so the
face of the three-wire subarrangement that holds P touches all three wires.
With the ends in a fixed order there are two simple three-wire
arrangements, ``1 2 1`` (b meets a first) and ``2 1 2`` (b meets c first).
Each has four faces that touch all three wires: the triangle and the three
faces across its sides.  Their side vectors (s_a, s_b, s_c) are
{001, 100, 101, 111} in ``1 2 1`` and {000, 010, 011, 110} in ``2 1 2``.  The
sets are disjoint, so P's side vector fixes the triple, and the rule reads
it.  The order of two crossings on one wire is a property of their triple,
so s fixes every local sequence of d.  That triple orientations determine
an arrangement is Knuth, *Axioms and Hulls* (LNCS 606, 1992); local
sequences are Felsner, *Geometric Graphs and Arrangements* (2004), ch. 6.

Why the model realizes d.  No two tangent points are antipodal, so no two
lines are parallel; only two tangents pass through a point off the circle,
so no three lines meet.  The face that holds the disk touches every line,
on the side s names.  So by the triple rule the model has d's local
sequences, labelled.  Pair by pair, the rule gives them in closed form
(``model_sequences``): the order of x and y on W depends only on the bits
of x, y and W and on how many of x and y exceed W, 24 cases, each one
checked by the tests.  ``realize_im`` still compares d's local sequences
with that closed form, exactly, before it returns the model; the geometric
half, that the model's lines sweep into the closed form, is proven above
and checked by the tests, not at run time.

``select_insertion_frame`` is the paper's inductive deletion order, kept
for its lemma; ``realize_im`` does not use it.
"""

from __future__ import annotations

from fractions import Fraction

from .analysis import critical_flags, is_in_Im
from .errors import NoConsecutiveTriple, NotInIm, WrongLabels
from .lines import Line, LineArrangement
from .wiring import WiringDiagram

__all__ = ["select_insertion_frame", "realize_im", "model_sequences", "tangent_model",
           "BASE_N"]

BASE_N = 5  # Im starts at 5 wires; a 6-wire Im diagram keeps a frame to delete


def select_insertion_frame(cx) -> list[int]:
    """The paper's inductive deletion order down to BASE_N wires, outermost
    first, read off the diagram's ``CellComplex`` ``cx``; NotInIm if not in
    Im.  ``realize_im`` does not use it.  Each is the middle wire of the
    first run of three non-critical edges of P from its leftmost vertex.
    The face across it is a triangle that merges into P: P's cycle loses
    the wire and keeps its side of the others, so the crossings of ``cx``
    serve every level."""
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


def _bead_word(n: int, swaps) -> list[int]:
    """s, per wire, of the only face that closes with >= 5 sides, which must
    have n sides, else NotInIm: a face meets each wire in at most one edge,
    so Im means the one (>=5)-gon has n sides.  The ``census_sides`` pass,
    keeping each open face's lower chain, the wires it lies above, by the
    chain rule of ``sweep``."""
    perm = list(range(1, n + 1))
    opened = [False] * (n + 1)
    sides = [2] * (n + 1)
    lower = [[] for _ in range(n + 1)]
    gons, chain = 0, None
    for t in swaps:
        if opened[t] and sides[t] >= 5:
            gons += 1
            if sides[t] == n:
                chain = lower[t]
        u, v = perm[t - 1], perm[t]
        perm[t - 1], perm[t] = v, u
        opened[t] = True
        sides[t] = 2
        lower[t] = [u]
        sides[t - 1] += 1
        lower[t - 1].append(v)
        sides[t + 1] += 1
    if gons != 1 or chain is None:
        raise NotInIm(f"the {n}-wire diagram has no all-wire (>=5)-gon")
    s = [0] * n
    for w in chain:
        s[w - 1] = 1
    return s


def model_sequences(s) -> dict[int, tuple[int, ...]]:
    """Per wire, its local sequence in the tangent model of bead word ``s``
    (``s[w - 1]`` is s_w), in closed form.  For wire W, let Z< and Z> be the
    s = 0 wires of smaller and larger label, O< and O> the s = 1 wires, each
    ascending.  W crosses Z> + O< + O> + Z< when s_W = 1, and the reverse of
    O> + Z< + Z> + O< when s_W = 0."""
    n = len(s)
    zeros = [w for w in range(1, n + 1) if not s[w - 1]]
    ones = [w for w in range(1, n + 1) if s[w - 1]]
    seqs = {}
    z = o = 0  # zeros and ones of smaller label than w
    for w in range(1, n + 1):
        if s[w - 1]:
            seqs[w] = tuple(zeros[z:] + ones[:o] + ones[o + 1:] + zeros[:z])
            o += 1
        else:
            seqs[w] = tuple(reversed(ones[o:] + zeros[:z] + zeros[z + 1:] + ones[:o]))
            z += 1
    return seqs


def tangent_model(s) -> LineArrangement:
    """The n lines tangent to the unit circle for bead word ``s``, line
    W - 1 for wire W."""
    n = len(s)
    lines = []
    for p in range(1, n + 1):
        q = n + 1 - p
        c = Fraction(p * p + q * q, 2 * p * q)
        lines.append(Line(Fraction(p * p - q * q, 2 * p * q), -c if s[p - 1] else c))
    return LineArrangement(tuple(lines))


def realize_im(d: WiringDiagram) -> LineArrangement:
    """The tangent model of ``d``, line i on wire i + 1; NotInIm if ``d`` is
    not in Im, WrongLabels if ``d``'s local sequences are not the closed
    form of its bead word."""
    n = d.n
    s = _bead_word(n, d.swaps)
    if d.local_sequences() != model_sequences(s):
        word = "".join(map(str, s))
        raise WrongLabels(f"bead word {word} gives local sequences other than the {n}-wire "
                          f"diagram's, against the triple rule")
    return tangent_model(s)
