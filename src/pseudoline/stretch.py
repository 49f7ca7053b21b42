"""Constructive stretching of diagrams whose every wire carries the (>=5)-gon.

Wires are deleted down to n = 5, that remainder is realized with straight
lines, and the wires go back in, last deleted first, in a loop.  Each
deleted wire is the wire of the middle edge of the first run of three
consecutive non-critical edges of the central polygon P in boundary-cycle
order (critical: the face across it is unbounded).  The diagram without it
is again in Im and P's cycle just loses it, so the whole deletion order is
read off the input's one cell complex, in the input's wire labels.  A wire
b returns as a line whose slope sits between those of the lines of b's two
neighbours in the wires' cyclic order at infinity, and which crosses every
other line between the two crossings that b's crossing falls between on
that line's wire.  Slope and intercept are each the simplest rational
(least denominator) of an open interval, which keeps coordinates short.
Each insertion is checked by labeled local sequences (Goodman & Pollack
1984), the input's restricted to the wires present: every line must cross
the others in the order its wire does, read either way.  Canonical forms
appear only in the base case and in one final check of the whole result.
At n = 5, Im has three classes: a table holds five integer lines for each,
and the isomorphism from the remainder to the table's diagram labels them.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import cmp_to_key
from math import ceil, floor

from .analysis import critical_flags, is_in_Im
from .cells import CellComplex
from .errors import EpsilonExhausted, NoConsecutiveTriple, NotInIm, WrongLabels
from .lines import (Line, LineArrangement, crossing_key, integer_line, lines_to_diagram,
                    monotone)
from .isomorphism import canonical_form, find_isomorphism, isomorphic
from .wiring import WiringDiagram, induced_subarrangement

__all__ = ["select_insertion_frame", "realize_im", "BASE_N"]

BASE_N = 5  # Im starts at 5 wires; a 6-wire Im diagram keeps a frame to delete

# (slope, intercept) of five lines realizing each 5-wire Im class, keyed by
# the class's canonical word
BASE_LINES = {
    (1, 3, 2, 1, 3, 4, 3, 2, 1, 3): ((3, -1), (-3, 2), (-1, 2), (2, 1), (0, 1)),
    (1, 2, 3, 2, 1, 2, 4, 3, 2, 1): ((-1, -2), (-3, 1), (3, -3), (1, 3), (-2, 1)),
    (1, 2, 1, 3, 4, 3, 2, 1, 3, 2): ((-1, -3), (1, -1), (-3, -1), (3, 3), (2, 2)),
}


def select_insertion_frame(cx: CellComplex) -> list[int]:
    """The wires to delete down to BASE_N, outermost first; NotInIm if not
    in Im.  Each is the middle wire of the first run of three non-critical
    edges of P from its leftmost vertex.  The face across it is a triangle
    that merges into P: P's cycle loses the wire and keeps its side of the
    others, so the crossings of ``cx`` serve every level."""
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


def _realize_base(d: WiringDiagram) -> tuple[list[Line], dict[int, int]]:
    """The table's lines for the Im class of ``d``, and the index of the line of each wire."""
    table = BASE_LINES.get(canonical_form(d).word)
    if table is None:  # the deletions left Im: a construction bug
        raise WrongLabels(f"the {d.n}-wire base is not a {BASE_N}-wire Im class")
    lines = [Line(Fraction(m), Fraction(c)) for m, c in table]
    res = lines_to_diagram(LineArrangement(tuple(lines)))
    iso = find_isomorphism(d, res.diagram)
    line_of = {w: i for i, w in res.wire_of_line.items()}
    return lines, {w: line_of[v] for w, v in iso.wire_map.items()}


def _mirror(lines: list[Line]) -> list[Line]:
    return [Line(-l.slope, l.intercept) for l in lines]


def realize_im(d: WiringDiagram) -> LineArrangement:
    """Exact straight-line realization, verified isomorphic to the input.

    Every level knows the line of each wire, so an insertion is checked by
    labeled local sequences alone; one canonical-form comparison of the
    whole result against ``d`` is the final check.
    """
    lines, _ = _realize(CellComplex(d))
    arr = LineArrangement(tuple(lines))
    if not isomorphic(lines_to_diagram(arr).diagram, d):
        raise WrongLabels(f"the realization of the {d.n}-wire diagram is not isomorphic to it")
    return arr


def _realize(cx: CellComplex) -> tuple[list[Line], dict[int, int]]:
    """Lines realizing the diagram of ``cx``, and the index of the line of each
    wire: the BASE_N wires left after the deletions are realized from the
    table, and the deleted wires go back in last deleted first."""
    order = select_insertion_frame(cx)
    base = sorted(set(range(1, cx.n + 1)).difference(order))
    lines, line_of = _realize_base(induced_subarrangement(cx.diagram, base).diagram)
    line_of = {base[v - 1]: i for v, i in line_of.items()}
    local = cx.diagram.local_sequences()
    for b in reversed(order):
        lines = _insert(local, b, lines, line_of)
        if lines is None:
            raise EpsilonExhausted(f"no line fits wire {b} among {len(line_of)} lines")
        line_of[b] = len(lines) - 1
    return lines, line_of


def _insert(local: dict[int, tuple[int, ...]], b: int, lines: list[Line],
            line_of: dict[int, int]) -> list[Line] | None:
    """``lines``, mirrored or not, then d*, the line of wire b, crossing as
    ``local`` does on b and the wires of ``line_of``; None if none fits.

    Sorted by slope, the lines carry their wires in the cyclic order of the
    wires' ends (Goodman & Pollack 1984): ascending labels, one way round or
    the other, else WrongLabels.  After a mirror, if needed, it is the
    ascending way, and d*'s slope is the simplest rational in the gap
    between the lines of b's cyclic neighbours in label order; when that
    gap runs through the vertical, the one past the steepest line.
    """
    wires = sorted(line_of, key=lambda w: lines[line_of[w]].slope)
    start = wires.index(min(wires))
    wires = wires[start:] + wires[:start]
    want = sorted(line_of)
    if wires == want[:1] + want[:0:-1]:
        lines = _mirror(lines)
    elif wires != want:
        raise WrongLabels(f"the lines carry wires {wires} in slope order, not {want} cyclically")
    k = bisect_left(want, b)
    lo, hi = (lines[line_of[w]].slope for w in (want[k - 1], want[k % len(want)]))
    sigma = _simplest(lo, hi) if lo < hi else _simplest(lo, None)
    keep = {*line_of, b}
    seq = {w: tuple(u for u in local[w] if u in keep) for w in keep}
    return _place(seq, b, lines, line_of, sigma)


def _simplest(lo: Fraction | None, hi: Fraction | None) -> Fraction:
    """The rational of least denominator strictly inside (lo, hi), None an open
    end; among integers, the one nearest 0.  Past the integer part f, the
    descent (Stern-Brocot) writes it as f + 1/y, y the simplest in
    (1 / (hi - f), 1 / (lo - f))."""
    k = 0
    if lo is not None and lo >= 0:
        k = floor(lo) + 1
    elif hi is not None and hi <= 0:
        k = ceil(hi) - 1
    if (lo is None or lo < k) and (hi is None or k < hi):
        return Fraction(k)
    f = floor(lo)  # an open end always admits an integer, so both are finite
    return f + 1 / _simplest(1 / (hi - f), 1 / (lo - f) if lo != f else None)


def _place(seq: dict[int, tuple[int, ...]], b: int, lines: list[Line],
           line_of: dict[int, int], sigma: Fraction) -> list[Line] | None:
    """``lines`` plus d*, the line of wire b, or None if no intercept fits.

    ``seq`` holds every wire's local sequence, and ``line_of`` maps every
    wire but b to its line.  Each line must cross the others at strictly
    monotone x in its wire's local sequence, b left out, read forwards or
    backwards; WrongLabels otherwise.
    d* has slope sigma.  It must cross every line strictly between the two
    crossings that b's crossing with that line's wire falls between, and
    meet the lines at strictly monotone x in b's local sequence.  For slope
    sigma the slots bound the intercept to an open interval, and d* takes
    its simplest rational, which keeps coordinates short.
    """
    abc = [integer_line(l) for l in lines]
    slot = {}  # wire -> crossings (key, p, q) left and right of b's, None past an end
    for w, i in line_of.items():
        want = [u for u in seq[w] if u != b]
        row = [crossing_key(abc[i], abc[line_of[u]]) for u in want]
        sense = monotone(row)
        if not sense:
            raise WrongLabels(f"the line of wire {w} does not meet the others in order {want}")
        k = seq[w].index(b)
        if sense < 0:
            row.reverse()
            k = len(want) - k
        slot[w] = (row[k - 1] if k > 0 else None, row[k] if k < len(row) else None)

    sn, sd = sigma.numerator, sigma.denominator
    # The shear (x, y) -> (x, y - sigma*x) makes d* the level line at its
    # intercept, and line i the line y = (m*x + c) / bb.  d* must cross the
    # line of w inside w's slot: it passes the slot's left end above it and
    # its right end below it where that line is steeper than sigma (m > 0),
    # the other way round where it is flatter.  The top height of the ends
    # below d* and the bottom one of those above, compared by
    # floor(h * 2**64) and exactly on ties, bound the intercept to (lo, hi).
    below, above = [], []  # (floor(h * 2**64), num, den), h = num / den
    by_height = cmp_to_key(lambda e, f: (e[0] > f[0]) - (e[0] < f[0]) or e[1] * f[2] - f[1] * e[2])
    for w, i in line_of.items():
        a, bb, c = abc[i]
        m, bb, c = a * sd - sn * bb, bb * sd, c * sd
        for end, under in zip(slot[w], (m > 0, m < 0)):
            if end is not None:  # the crossing (key, p, q) at x = p / q
                num, den = m * end[1] + c * end[2], bb * end[2]
                (below if under else above).append(((num << 64) // den, num, den))
    lo, hi = (Fraction(*pick(ends, key=by_height)[1:]) if ends else None
              for ends, pick in ((below, max), (above, min)))
    if lo is not None and hi is not None and hi <= lo:
        return None
    d_star = Line(sigma, _simplest(lo, hi))
    star = integer_line(d_star)
    if not monotone([crossing_key(star, abc[line_of[w]]) for w in seq[b]]):
        return None
    return lines + [d_star]
