import hashlib
from bisect import bisect_left
from fractions import Fraction
from operator import itemgetter

import pytest

from pseudoline.enumeration import raw_words
from pseudoline.errors import DuplicateSlope, InputError, TooFewLines
from pseudoline.lines import Line, LineArrangement
from pseudoline.render import _wire_polylines, render_diagram, render_lines
from pseudoline.wiring import WiringDiagram, validate_wiring

from test_stretch import seeded_necklace
from test_suites import SAMPLES

HALF = Fraction(1, 2)


def polyline_y(poly, x):
    """Height of an x-monotone polyline at ``x`` inside its span."""
    i = bisect_left(poly, x, key=itemgetter(0))  # the first breakpoint at or right of x
    (x1, y1), (x2, y2) = poly[i - 1], poly[i]
    if x2 == x or y1 == y2:
        return y2
    return y1 + (y2 - y1) * (x - x1) / (x2 - x1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_wire_polylines_encode_the_diagram(n):
    """Ordering the wires by height at x = s + 1/2 gives the permutation
    after step s, for every word: the drawn wires are the diagram.  The
    wire at track t is then at height 1 - t."""
    steps = n * (n - 1) // 2
    xs = [s + HALF for s in range(-1, steps)]
    tracks = list(range(0, -n, -1))
    for word in raw_words(n):
        polylines = _wire_polylines(WiringDiagram(n, word), -1, steps + 1)
        perm = list(range(1, n + 1))
        for x, t in zip(xs, (None, *word)):
            if t is not None:
                perm[t - 1], perm[t] = perm[t], perm[t - 1]
            ys = [polyline_y(polylines[w - 1], x) for w in perm]
            assert ys == tracks, (word, x)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_crossings_sit_half_a_track_up(n):
    """The face polygons put the crossing at step s at (s, 1/2 - swaps[s])."""
    steps = n * (n - 1) // 2
    for word in raw_words(n):
        d = WiringDiagram(n, word)
        polylines = _wire_polylines(d, -1, steps + 1)
        for s, ((u, v), t) in enumerate(zip(d.crossing_pairs(), word)):
            for w in (u, v):
                assert polyline_y(polylines[w - 1], Fraction(s)) == HALF - t


def test_wire_polylines_are_exact():
    for poly in _wire_polylines(validate_wiring(4, [2, 1, 3, 2, 1, 3]), -1, 7):
        for x, y in poly:
            assert isinstance(x, Fraction) and isinstance(y, Fraction)


def test_wire_y_monotone_pieces():
    polylines = _wire_polylines(validate_wiring(3, [1, 2, 1]), -5, 10)
    # wire 1 starts at the top (y=0) and ends at the bottom (y=-2)
    assert polyline_y(polylines[0], Fraction(-5)) == 0
    assert polyline_y(polylines[0], Fraction(10)) == -2
    # it crosses wire 2 at x = 0, halfway down its first diagonal
    assert polyline_y(polylines[0], Fraction(0)) == -HALF


def test_render_diagram_structure():
    d = validate_wiring(5, [1, 2, 1, 3, 4, 3, 2, 1, 3, 2])
    svg = render_diagram(d)
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 5  # one per wire
    assert svg.count("<polygon") == 6  # bounded faces
    assert 'class="face side-5"' in svg


# sha256 of render_diagram for test_suites.SAMPLES and the seeded n = 16
# necklace, recorded when boundary_cycle still sorted per-face edge lists:
# the face polygons keep their vertex order under the chain walk
RENDER_SHA256 = [
    "ef60e91209c9ec50f55da8f348a6ed56786f93186379bec8b61f52b1e6b3d88c",
    "88fc6ff2732fc7eb652ec2075f5d02384e635b488865bbb4c453b93e2911a81e",
    "e60888cead20977be135acb13b412f3741044b1038c1a174c98721bd15132188",
    "93bc828340b5fa2a81d70006c44ec955c967834fb3c75203df253214ed9c423b",
    "8b81e93d58c8fd0982aff5db79249877a1b09a3ba051b09badade8c79a7a9c27",
    "99e7c70f94f2bc87537ca5d997e0eae404b1b2b1d0c411d312da469040485a1b",
]


@pytest.mark.parametrize("d,digest", zip([*SAMPLES, seeded_necklace(16)], RENDER_SHA256),
                         ids=["n3", "n4", "n5", "n6a", "n6b", "n16"])
def test_render_diagram_golden(d, digest):
    assert hashlib.sha256(render_diagram(d).encode()).hexdigest() == digest


def test_render_triangle_fill():
    svg = render_diagram(validate_wiring(3, [1, 2, 1]))
    assert svg.count("<polygon") == 1
    assert "#f4c7c3" in svg  # triangle fill


def test_render_lines():
    arr = LineArrangement(
        tuple(
            Line(Fraction(s), Fraction(b))
            for s, b in [(0, 0), (1, 0), (-1, 1)]
        )
    )
    svg = render_lines(arr)
    assert svg.startswith("<svg ")
    assert svg.count("<line") == 3


@pytest.mark.parametrize("k", [0, 1])
def test_render_lines_needs_two_lines(k):
    with pytest.raises(TooFewLines):
        render_lines(LineArrangement(tuple(Line(Fraction(i), Fraction(0)) for i in range(k))))


@pytest.mark.parametrize("intercept", [2, 0], ids=["parallel", "equal"])
def test_render_lines_rejects_a_shared_slope(intercept):
    arr = LineArrangement((Line(Fraction(1), Fraction(0)), Line(Fraction(1), Fraction(intercept))))
    with pytest.raises(DuplicateSlope) as exc:
        render_lines(arr)
    assert isinstance(exc.value, InputError)
