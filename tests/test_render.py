from fractions import Fraction

import pytest

from pseudoline.errors import DuplicateSlope, InputError, TooFewLines
from pseudoline.lines import Line, LineArrangement
from pseudoline.render import render_diagram, render_lines
from pseudoline.wiring import validate_wiring


def test_render_diagram_structure():
    d = validate_wiring(5, [1, 2, 1, 3, 4, 3, 2, 1, 3, 2])
    svg = render_diagram(d)
    assert svg.startswith("<svg ") and svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 5  # one per wire
    assert svg.count("<polygon") == 6  # bounded faces
    assert 'class="face side-5"' in svg


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
