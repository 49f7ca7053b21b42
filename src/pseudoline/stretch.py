"""Constructive stretching of diagrams whose every wire carries the (>=5)-gon.

The recursion deletes one wire b adjacent to the central polygon, realizes the
remainder with straight lines, and re-inserts b as a line whose slope sits
between those of the lines of b's two neighbours in the wires' cyclic order
at infinity, and which crosses every other line between the two crossings
that b's crossing falls between on that line's wire.  Slope and intercept
are each the simplest rational (least denominator) of an open interval,
which keeps coordinates short.
Each level returns the line of every wire, so an insertion is checked by
labeled local sequences (Goodman & Pollack 1984): every line must cross the
others in the order its wire does, read forwards or backwards, and the new
line is placed by its n-1 crossings alone.  Canonical forms appear only in
the base case and in one final check of the whole result.  The recursion
stops at n = 5, where Im has three classes: a table holds five integer lines
for each, and the isomorphism from the target to the table's diagram labels
the lines.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import ceil, floor
from typing import NamedTuple

from .analysis import critical_edges, is_in_Im
from .cells import CellComplex
from .errors import (
    EpsilonExhausted,
    NoConsecutiveTriple,
    NotInIm,
    WrongLabels,
)
from .lines import (Line, LineArrangement, crossing_key, integer_line, lines_to_diagram,
                    monotone)
from .isomorphism import canonical_form, find_isomorphism, isomorphic
from .wiring import WiringDiagram, induced_subarrangement

__all__ = ["RealizerState", "select_insertion_frame", "realize_im", "BASE_N"]

BASE_N = 5  # Im starts at 5 wires; a 6-wire Im diagram keeps a frame to delete

# (slope, intercept) of five lines realizing each 5-wire Im class, keyed by
# the class's canonical word
BASE_LINES = {
    (1, 3, 2, 1, 3, 4, 3, 2, 1, 3): ((3, -1), (-3, 2), (-1, 2), (2, 1), (0, 1)),
    (1, 2, 3, 2, 1, 2, 4, 3, 2, 1): ((-1, -2), (-3, 1), (3, -3), (1, 3), (-2, 1)),
    (1, 2, 1, 3, 4, 3, 2, 1, 3, 2): ((-1, -3), (1, -1), (-3, -1), (3, 3), (2, 2)),
}


class RealizerState(NamedTuple):
    """Insertion frame: three consecutive non-critical edges of P."""

    diagram: WiringDiagram
    P: int
    edges: tuple[int, int, int]  # a', b', c'
    wires: tuple[int, int, int]  # a, b, c
    seq: dict[int, tuple[int, ...]]  # wire -> crossing order, P on the left
    k: int  # a_k = c
    t: int  # b_t = a
    r: int  # c_r = a
    H: tuple[int, ...]  # a_1 .. a_{k-r-1}
    local: dict[int, tuple[int, ...]]  # every wire's local sequence


def _try_frame(cx: CellComplex, P: int, local: dict[int, tuple[int, ...]],
               ea: int, eb: int, ec: int) -> RealizerState | None:
    n = cx.n
    a, b, c = (cx.edge_wire(e) for e in (ea, eb, ec))
    # ``local`` runs left to right; a wire with P below its frame edge runs backwards
    seq = {w: local[w] if cx.sw.upper_face[e] == P else local[w][::-1]
           for w, e in ((a, ea), (b, eb), (c, ec))}
    sa, sb, sc = seq[a], seq[b], seq[c]
    k = sa.index(c) + 1
    t = sb.index(a) + 1
    r = sc.index(a) + 1
    ok = (
        3 <= k <= n - 1 and 2 <= t <= n - 3 and 1 <= r <= n - 3
        and r <= t <= k - 1
        and sa[k - 2] == b  # a_{k-1} = b (triangle on a')
        and sb[t] == c      # b_{t+1} = c (triangle on b')
        and sc[r] == b      # c_{r+1} = b (triangle on c')
    )
    if not ok:
        return None
    # interleaving identities around the two crossing fans
    for j in range(1, t):
        if sb[t - j - 1] != sa[k - j - 2]:
            return None
        if j <= r - 1 and sb[t - j - 1] != sc[r - j - 1]:
            return None
    for i in range(1, n - t - 1):
        if sb[t + i] != sc[r + i]:
            return None
        if i <= n - k - 1 and sb[t + i] != sa[k + i - 1]:
            return None
    H = sa[: k - r - 1]
    for ell in range(1, k - r):
        if sc[n + r - k + ell - 1] != sa[ell - 1]:
            return None
    return RealizerState(cx.diagram, P, (ea, eb, ec), (a, b, c), seq, k, t, r, H, local)


def select_insertion_frame(cx: CellComplex) -> RealizerState:
    """Pick three consecutive non-critical edges of P, in a working orientation."""
    P = _central_face(cx)
    flags = critical_edges(cx, P)
    cycle = tuple(flags)  # keyed in boundary-cycle order
    local = cx.diagram.local_sequences()
    m = len(cycle)
    for i in range(m):
        trip = tuple(cycle[(i + j) % m] for j in range(3))
        if any(flags[e] for e in trip):
            continue
        for ea, eb, ec in (trip, trip[::-1]):
            st = _try_frame(cx, P, local, ea, eb, ec)
            if st is not None:
                return st
    raise NoConsecutiveTriple(f"no usable frame on face {P}")


def _central_face(cx: CellComplex) -> int:
    """P, the (>=5)-gon on which every wire has an edge; NotInIm if none is."""
    im = is_in_Im(cx.diagram, cx)
    if not im.member:
        raise NotInIm(f"diagram {cx.diagram.swaps} has no all-wire (>=5)-gon")
    return im.face


def _realize_base(d: WiringDiagram) -> tuple[list[Line], dict[int, int]]:
    """The table's lines for the Im class of ``d``, and the index of the line of each wire."""
    lines = [Line(Fraction(m), Fraction(c)) for m, c in BASE_LINES[canonical_form(d).word]]
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
        raise WrongLabels(f"realization of {d.swaps} is not isomorphic to it")
    return arr


def _realize(cx: CellComplex) -> tuple[list[Line], dict[int, int]]:
    """Lines realizing the diagram of ``cx``, and the index of the line of each wire."""
    d = cx.diagram
    if d.n <= BASE_N:
        _central_face(cx)  # NotInIm, not a missing table entry
        return _realize_base(d)
    st = select_insertion_frame(cx)
    b = st.wires[1]
    lines, line_of = _realize_without(d, b)
    got = _insert(st, lines, line_of)
    if got is None:
        raise EpsilonExhausted(f"insertion failed for {d.swaps}")
    line_of[b] = len(got) - 1
    return got, line_of


def _realize_without(d: WiringDiagram, b: int) -> tuple[list[Line], dict[int, int]]:
    """Lines realizing ``d`` minus wire ``b``, and the line of each other wire."""
    ind = induced_subarrangement(d, [w for w in range(1, d.n + 1) if w != b])
    lines, line_of_child = _realize(CellComplex(ind.diagram))
    return lines, {w: line_of_child[v] for w, v in ind.wire_map.items()}


def _insert(st: RealizerState, lines: list[Line], line_of: dict[int, int]) -> list[Line] | None:
    """Lines realizing st.diagram: ``lines``, mirrored or not, then d*, the
    line of the frame's wire b; None if no placement fits.

    Sorted by slope, the lines carry their wires in the cyclic order of the
    wires' ends (Goodman & Pollack 1984): 1..n without b, one way round or
    the other, else WrongLabels.  After a mirror, if needed, it is the
    ascending way, and d*'s slope is the simplest rational in the gap
    between the lines of b's cyclic neighbours b - 1 and b + 1; when that
    gap runs through the vertical, the one past the steepest line.
    """
    n, b = st.diagram.n, st.wires[1]
    wires = sorted(line_of, key=lambda w: lines[line_of[w]].slope)
    start = wires.index(min(wires))
    wires = wires[start:] + wires[:start]
    want = [w for w in range(1, n + 1) if w != b]
    if wires == want[:1] + want[:0:-1]:
        lines = _mirror(lines)
    elif wires != want:
        raise WrongLabels(f"the lines carry wires {wires} in slope order, not {want} cyclically")
    lo, hi = (lines[line_of[(w - 1) % n + 1]].slope for w in (b - 1, b + 1))
    return _place(st, lines, line_of, _simplest(lo, hi) if lo < hi else _simplest(lo, None))


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


def _place(st: RealizerState, lines: list[Line], line_of: dict[int, int],
           sigma: Fraction) -> list[Line] | None:
    """``lines`` plus d*, the line of the frame's wire b, or None if no intercept fits.

    ``line_of`` maps every other wire of st.diagram to its line.  Each line
    must cross the others at strictly monotone x in its wire's local
    sequence, b left out, read forwards or backwards; WrongLabels otherwise.
    d* has slope sigma.  It must cross every line strictly between the two
    crossings that b's crossing with that line's wire falls between, and
    meet the lines at strictly monotone x in b's local sequence.  For slope
    sigma the slots bound the intercept to an open interval, and d* takes
    its simplest rational, which keeps coordinates short.
    """
    seq, b = st.local, st.wires[1]
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
