"""Test-only oracle: the Fraction sweep of a line arrangement.

Every crossing is a Fraction point (x, y); a point met twice means three or
more lines are concurrent, and the crossings are swept in (x, i, j) order.
It shares no predicate with the integer sweep keys of
``pseudoline.lines.lines_to_diagram`` and serves as its reference.
"""

from fractions import Fraction

from pseudoline.errors import ConcurrentLines, DuplicateSlope
from pseudoline.lines import LineArrangement, LinesResult, crossing_point
from pseudoline.wiring import validate_wiring


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
