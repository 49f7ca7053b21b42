"""Straight-line arrangements with exact rational coordinates.

A line is y = slope * x + intercept with Fraction coefficients; vertical
lines are not supported.  Conversion to a wiring diagram sweeps the
crossings left to right, ordered by integer keys; no Fraction is built per crossing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from itertools import groupby
from math import lcm
from typing import NamedTuple

from .errors import ConcurrentLines, DuplicateSlope
from .wiring import WiringDiagram, _clip, validate_wiring

__all__ = [
    "Line",
    "LineArrangement",
    "LinesResult",
    "lines_to_diagram",
    "frac_str",
    "parse_frac",
]


class Line(NamedTuple):
    slope: Fraction
    intercept: Fraction

    def y_at(self, x: Fraction) -> Fraction:
        return self.slope * x + self.intercept


class LineArrangement(NamedTuple):
    lines: tuple[Line, ...]

    @property
    def n(self) -> int:
        return len(self.lines)


class LinesResult(NamedTuple):
    diagram: WiringDiagram
    wire_of_line: dict[int, int]  # 0-based line index -> 1-based wire


def crossing_point(a: Line, b: Line) -> tuple[Fraction, Fraction]:
    x = (b.intercept - a.intercept) / (a.slope - b.slope)
    return x, a.y_at(x)


def integer_line(ln: Line) -> tuple[int, int, int]:
    """(a, b, c) with y = (a*x + c) / b on ``ln``; b > 0 is the lcm of its two denominators."""
    s, t = ln
    b = lcm(s.denominator, t.denominator)
    return s.numerator * (b // s.denominator), b, t.numerator * (b // t.denominator)


def crossing_key(u: tuple[int, int, int], w: tuple[int, int, int]) -> tuple[int, int, int]:
    """(floor(x * 2**64), p, q) with q > 0: integer lines ``u`` and ``w`` cross at x = p / q."""
    (a, b, c), (a2, b2, c2) = u, w
    p, q = c2 * b - c * b2, a * b2 - a2 * b
    p, q = (p, q) if q > 0 else (-p, -q)
    return (p << 64) // q, p, q


_by_x = cmp_to_key(lambda e, f: e[3] * f[4] - f[3] * e[4])  # crossings (key, i, j, p, q)


def _order_ties(events: list[tuple]) -> None:
    """Sort each run of crossings (key, i, j, p, q) of one key by exact x, equal x
    kept in (i, j) order; ConcurrentLines if a line crosses two others at one x.
    A line has one point at each x, so a line met twice in a group of equal x
    meets the others of its crossings there."""
    ends = [k for k in range(1, len(events)) if events[k][0] != events[k - 1][0]] + [len(events)]
    for start, end in zip([0] + ends, ends):
        if end - start > 1:
            events[start:end] = run = sorted(events[start:end], key=_by_x)
            for _, group in groupby(run, key=_by_x):
                group, seen = list(group), set()
                for u in (u for e in group for u in e[1:3]):
                    if u in seen:
                        at = {v for e in group if u in e[1:3] for v in e[1:3]}
                        raise ConcurrentLines(f"lines {tuple(sorted(at))} meet at one point")
                    seen.add(u)


def lines_to_diagram(arr: LineArrangement) -> LinesResult:
    """Sweep an arrangement of pairwise non-parallel lines into a diagram.

    Raises DuplicateSlope for parallel lines and ConcurrentLines when three
    or more lines meet in a point.  Crossings are sorted by the integer key
    floor(x * 2**64) and, where keys tie, by exact cross-multiplication.
    """
    lines = arr.lines
    n = len(lines)
    slopes = [ln.slope for ln in lines]
    if len(set(slopes)) != n:
        raise DuplicateSlope("two lines share a slope")

    abc = [integer_line(ln) for ln in lines]
    # (key, i, j, p, q): lines i < j (0-based) cross at x = p / q
    events = sorted((key, i, j, p, q) for i in range(n) for j in range(i + 1, n)
                    for key, p, q in (crossing_key(abc[i], abc[j]),))
    _order_ties(events)

    # Top wire as x -> -inf is the line of smallest slope.
    order = sorted(range(n), key=lambda i: slopes[i])
    wire_of_line = {idx: w + 1 for w, idx in enumerate(order)}
    pos = {idx: p for p, idx in enumerate(order)}  # 0-based track position
    swaps = []
    for _, i, j, _, _ in events:
        pi, pj = pos[i], pos[j]
        if pi > pj:
            i, j, pi, pj = j, i, pj, pi
        assert pj == pi + 1, "crossing lines are not adjacent in the sweep"
        pos[i], pos[j] = pj, pi
        swaps.append(pi + 1)
    return LinesResult(validate_wiring(n, swaps), wire_of_line)


def frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def parse_frac(s: str) -> Fraction:
    """An exact value written as a string: an integer, p/q or a decimal.

    Exponents are refused: ``Fraction("1e999999999")`` would build an
    integer of a billion digits.  The error quotes at most 40 characters.
    """
    if not isinstance(s, str):
        raise ValueError(f"expected an integer, p/q or decimal string, got {type(s).__name__}")
    if "e" not in s and "E" not in s:
        try:
            return Fraction(s)
        except ValueError:  # its message quotes all of s
            pass
    raise ValueError(f"cannot read {_clip(s)} as an integer, p/q or decimal")
