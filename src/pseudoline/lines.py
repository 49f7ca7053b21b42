"""Straight-line arrangements with exact rational coordinates.

A line is y = slope * x + intercept with Fraction coefficients; vertical
lines are not supported.  Conversion to a wiring diagram sweeps the
crossings left to right.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConcurrentLines, DuplicateSlope
from .wiring import WiringDiagram, validate_wiring

__all__ = [
    "Line",
    "LineArrangement",
    "LinesResult",
    "lines_to_diagram",
    "frac_str",
    "parse_frac",
]


@dataclass(frozen=True)
class Line:
    slope: Fraction
    intercept: Fraction

    def y_at(self, x: Fraction) -> Fraction:
        return self.slope * x + self.intercept


@dataclass(frozen=True)
class LineArrangement:
    lines: tuple[Line, ...]

    @property
    def n(self) -> int:
        return len(self.lines)


@dataclass(frozen=True)
class LinesResult:
    diagram: WiringDiagram
    wire_of_line: dict[int, int]  # 0-based line index -> 1-based wire


def crossing_point(a: Line, b: Line) -> tuple[Fraction, Fraction]:
    x = (b.intercept - a.intercept) / (a.slope - b.slope)
    return x, a.y_at(x)


def lines_to_diagram(arr: LineArrangement) -> LinesResult:
    """Sweep an arrangement of pairwise non-parallel lines into a diagram.

    Raises DuplicateSlope for parallel lines and ConcurrentLines when three
    or more lines meet in a point.
    """
    lines = arr.lines
    n = len(lines)
    slopes = [ln.slope for ln in lines]
    if len(set(slopes)) != n:
        raise DuplicateSlope("two lines share a slope")

    events = []  # (x, i, j) with i, j 0-based line indices
    points: dict[tuple[Fraction, Fraction], tuple[int, int]] = {}
    for i in range(n):
        for j in range(i + 1, n):
            x, y = crossing_point(lines[i], lines[j])
            prev = points.get((x, y))
            if prev is not None:
                raise ConcurrentLines(f"lines {prev + (i, j)} meet at one point")
            points[(x, y)] = (i, j)
            events.append((x, i, j))
    events.sort(key=lambda e: (e[0], e[1], e[2]))

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
    return LinesResult(validate_wiring(n, swaps), wire_of_line)


def frac_str(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def parse_frac(s: str) -> Fraction:
    return Fraction(s)
