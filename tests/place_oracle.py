"""Test-only oracle: the Fraction placement of the realizer's new line.

``_place`` computes every eta bound as a Fraction, wire by wire, and
``_fresh_slope`` picks sigma from a sorted set of Fraction slopes.  It shares
no eta arithmetic with ``pseudoline.stretch._place``, which compares the
integer heights of the slot crossings, and serves as its reference.
"""

from fractions import Fraction

from pseudoline.errors import WrongLabels
from pseudoline.lines import Line, crossing_key, crossing_point, integer_line, monotone
from pseudoline.wiring import WiringDiagram


def _fresh_slope(lines: list[Line], lo: Fraction, hi: Fraction) -> Fraction:
    """A slope strictly inside (lo, hi) distinct from every line's slope."""
    inside = sorted({lo, hi} | {l.slope for l in lines if lo < l.slope < hi})
    return (inside[0] + inside[1]) / 2


def _place(d: WiringDiagram, b: int, lines: list[Line], line_of: dict[int, int],
           order: list[int], pos: int,
           corners: list[tuple[int, int]]) -> list[Line] | None:
    """``lines`` plus d*, the line of wire ``b``, or None if no eta fits.

    ``line_of`` maps every other wire of ``d`` to its line.  Each line must
    cross the others at strictly monotone x in its wire's local sequence, b
    left out, read forwards or backwards; WrongLabels otherwise.  d* has a
    slope between the chain slopes at ``pos`` and passes through the chain's
    end-point crossing v, shifted by eta towards the centroid of
    ``corners``, the central face of ``lines``.  It must cross every line
    strictly between the two crossings that b's crossing with that line's
    wire falls between, and meet the lines at strictly monotone x in b's
    local sequence.  The slots bound eta to an open interval, and eta is
    the largest power of two below its top, which keeps coordinates short.
    """
    seq = d.local_sequences()
    abc = [integer_line(l) for l in lines]
    slot: dict[int, tuple[Fraction | None, Fraction | None]] = {}  # x's around b's crossing
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
        slot[w] = (Fraction(*row[k - 1][1:]) if k > 0 else None,
                   Fraction(*row[k][1:]) if k < len(row) else None)

    slopes = [lines[i].slope for i in order]
    assert all(slopes[i] < slopes[i + 1] for i in range(len(slopes) - 1))
    sigma = _fresh_slope(lines, slopes[pos - 1], slopes[pos])
    vx, vy = crossing_point(lines[order[0]], lines[order[-1]])
    # a point inside the central face locates the target quadrant
    pts = [crossing_point(lines[line_of[u]], lines[line_of[v]]) for u, v in corners]
    ux = sum(p[0] for p in pts) / len(pts) - vx
    uy = sum(p[1] for p in pts) / len(pts) - vy

    # d* = sigma*x + base + eta*shift meets the line of w at x = p + eta*q,
    # which must fall strictly inside w's slot: each slot bound g + eta*h > 0
    # cuts the eta in (0, 2) down to an open interval (lo, hi)
    base = vy - sigma * vx
    shift = uy - sigma * ux
    lo, hi = Fraction(0), Fraction(2)
    for w, i in line_of.items():
        gap = sigma - lines[i].slope
        p, q = (lines[i].intercept - base) / gap, -shift / gap
        left, right = slot[w]
        bounds = []
        if left is not None:
            bounds.append((p - left, q))
        if right is not None:
            bounds.append((right - p, -q))
        for g, h in bounds:
            if h > 0:
                lo = max(lo, -g / h)
            elif h < 0:
                hi = min(hi, -g / h)
            elif g <= 0:
                return None
    if hi <= lo:
        return None
    eta = Fraction(1)  # the largest power of two below hi, if it is above lo
    while eta >= hi:
        eta /= 2
    if eta <= lo:
        return None
    d_star = Line(sigma, base + eta * shift)
    star = integer_line(d_star)
    if not monotone([crossing_key(star, abc[line_of[w]]) for w in seq[b]]):
        return None
    return lines + [d_star]
