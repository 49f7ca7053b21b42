"""Test-only oracle: where the realizer's new line must fall.

``cyclic_ascending`` checks the slope order of the lines against their
wires' order at infinity.  ``slots`` and ``intercept_interval`` compute,
wire by wire and in Fractions, where d* may cross each line and which
intercepts put every crossing there for a given slope.  They share no
height arithmetic with ``pseudoline.stretch._place``, which compares the
integer heights of the slot crossings, and serve as its reference: any
intercept strictly inside the interval reported here is a valid placement,
whichever point ``_place`` picks.
"""

from fractions import Fraction

from pseudoline.errors import WrongLabels
from pseudoline.lines import Line, crossing_key, integer_line, monotone

Slot = tuple[Fraction | None, Fraction | None]


def slots(seq: dict[int, tuple[int, ...]], b: int, lines: list[Line],
          line_of: dict[int, int]) -> dict[int, Slot]:
    """Per wire w != b, the x's of the crossings on w's line left and right of
    b's crossing, None past an end.

    ``seq`` holds every wire's local sequence, and ``line_of`` maps every
    wire but b to its line.  Each line must cross the others at strictly
    monotone x in its wire's local sequence, b left out, read forwards or
    backwards; WrongLabels otherwise.
    """
    abc = [integer_line(l) for l in lines]
    out = {}
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
        out[w] = (Fraction(*row[k - 1][1:]) if k > 0 else None,
                  Fraction(*row[k][1:]) if k < len(row) else None)
    return out


def cyclic_ascending(lines: list[Line], line_of: dict[int, int]) -> bool:
    """Whether the lines have distinct slopes and, sorted by slope, carry
    their wires (``line_of``: wire -> line) in ascending cyclic order."""
    by_slope = sorted(line_of, key=lambda w: lines[line_of[w]].slope)
    slopes = [lines[line_of[w]].slope for w in by_slope]
    start = by_slope.index(min(by_slope))
    return (all(s < t for s, t in zip(slopes, slopes[1:]))
            and by_slope[start:] + by_slope[:start] == sorted(by_slope))


def intercept_interval(lines: list[Line], line_of: dict[int, int], slot: dict[int, Slot],
                       sigma: Fraction) -> tuple[Fraction | None, Fraction | None]:
    """The open interval (lo, hi) of the intercepts t for which y = sigma*x + t
    crosses the line of every wire w strictly inside ``slot[w]``; None is an
    open end, and lo >= hi means no intercept fits."""
    lo = hi = None
    for w, i in line_of.items():
        ln = lines[i]
        gap = sigma - ln.slope
        # the crossing x = (ln.intercept - t) / gap falls as t rises iff gap > 0
        for end, left in zip(slot[w], (True, False)):
            if end is None:
                continue
            t = ln.y_at(end) - sigma * end  # the intercept that crosses at x = end
            if (gap > 0) == left:  # x > end (left) or x < end (right) needs t < that
                hi = t if hi is None else min(hi, t)
            else:
                lo = t if lo is None else max(lo, t)
    return lo, hi
