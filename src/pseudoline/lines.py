"""Straight-line arrangements with exact rational coordinates.

A line is y = slope * x + intercept with Fraction coefficients; vertical
lines are not supported.  Conversion to a wiring diagram sweeps the
crossings left to right, ordered by exact integer keys; no Fraction is built
per crossing.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .errors import ConcurrentLines, DuplicateSlope
from .wiring import WiringDiagram, _clip

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


def crossing_key(u: tuple[int, int, int], w: tuple[int, int, int], k: int) -> int:
    """floor(x * 2**k), with x where integer lines ``u`` and ``w`` cross."""
    (a, b, c), (a2, b2, c2) = u, w
    p, q = c2 * b - c * b2, a * b2 - a2 * b
    return (p << k) // q if q > 0 else (-p << k) // -q


def _check_simple(events: list[tuple[int, int, int]]) -> None:
    """ConcurrentLines if a line crosses two others at one x.  A run of
    crossings (key, i, j) of one key is one x, and a line has one point at
    each x, so a line met twice in a run meets the others of its crossings
    there."""
    ends = [k for k in range(1, len(events)) if events[k][0] != events[k - 1][0]] + [len(events)]
    for start, end in zip([0] + ends, ends):
        if end - start > 1:
            group, seen = events[start:end], set()
            for u in (u for e in group for u in e[1:3]):
                if u in seen:
                    at = {v for e in group if u in e[1:3] for v in e[1:3]}
                    raise ConcurrentLines(f"lines {tuple(sorted(at))} meet at one point")
                seen.add(u)


def lines_to_diagram(arr: LineArrangement) -> LinesResult:
    """Sweep an arrangement of pairwise non-parallel lines into a diagram.

    Raises DuplicateSlope for parallel lines and ConcurrentLines when three
    or more lines meet in a point.  Crossings are sorted by the integer key
    floor(x * 2**k), which is exact: in integer form (``integer_line``) with
    A the largest |a| and B the largest b, every crossing is x = p / q with
    0 < q <= 2AB, so two distinct crossings lie at least (2AB)**-2 apart,
    and k = 2 * bitlen(2AB) puts them under distinct keys.  Each pair
    crosses once, at adjacent tracks, so the word is valid as built.
    """
    lines = arr.lines
    n = len(lines)
    slopes = [ln.slope for ln in lines]
    if len(set(slopes)) != n:
        raise DuplicateSlope("two lines share a slope")

    abc = [integer_line(ln) for ln in lines]
    a_max = max((abs(a) for a, _, _ in abc), default=0)
    k = 2 * (2 * a_max * max((b for _, b, _ in abc), default=0)).bit_length()
    # (key, i, j): lines i < j (0-based) cross at x = key / 2**k, rounded down
    events = sorted((crossing_key(abc[i], abc[j], k), i, j)
                    for i in range(n) for j in range(i + 1, n))
    _check_simple(events)

    # Top wire as x -> -inf is the line of smallest slope.
    order = sorted(range(n), key=lambda i: slopes[i])
    wire_of_line = {idx: w + 1 for w, idx in enumerate(order)}
    pos = {idx: p for p, idx in enumerate(order)}  # 0-based track position
    swaps = []
    for _, i, j in events:
        pi, pj = pos[i], pos[j]
        if pi > pj:
            i, j, pi, pj = j, i, pj, pi
        assert pj == pi + 1, "crossing lines are not adjacent in the sweep"
        pos[i], pos[j] = pj, pi
        swaps.append(pi + 1)
    return LinesResult(WiringDiagram(n, tuple(swaps)), wire_of_line)


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
