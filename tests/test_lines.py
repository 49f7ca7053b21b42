import itertools
import random
import time
from fractions import Fraction

import pytest

import lines_oracle
from pseudoline.errors import ConcurrentLines, DuplicateSlope
from pseudoline.isomorphism import isomorphic
from pseudoline.lines import (
    Line,
    LineArrangement,
    crossing_point,
    frac_str,
    lines_to_diagram,
    parse_frac,
)
from pseudoline.necklace import build_arrangement
from pseudoline.stretch import realize_im
from pseudoline.wiring import validate_wiring


def L(s, b):
    return Line(Fraction(s), Fraction(b))


# y = 0, y = x, y = -x + 1
THREE_LINES = (L(0, 0), L(1, 0), L(-1, 1))
# three crossings at x = 0, at y = 0, 1 and 5
EQUAL_X_LINES = (L(1, 0), L(-1, 0), L(2, 1), L(-2, 1), L(3, 5), L(-3, 5))
# y = 0 crosses y = x - 1 at x = 1, y = 2x - 2 - 2^-79 at x = 1 + 2^-80, and
# the two cross at x = 1 + 2^-79
CLOSE_LINES = (L(0, 0), L(1, -1), Line(Fraction(2), -2 - Fraction(1, 2**79)))
# slope i and intercept i^2 * 2^-80: lines i and j cross at x = -(i + j) * 2^-80
ONE_KEY_LINES = tuple(Line(Fraction(i), Fraction(i * i, 2**80)) for i in range(128))


def test_three_lines():
    # y = 0, y = x, y = -x + 1: crossings at x = 0, 1/2, 1, and the first
    # one (at x = 0) is between the two bottom wires
    res = lines_to_diagram(LineArrangement(THREE_LINES))
    assert res.diagram == validate_wiring(3, [2, 1, 2])
    # smallest slope is the top wire at x -> -inf
    assert res.wire_of_line == {2: 1, 0: 2, 1: 3}


def test_crossing_point():
    x, y = crossing_point(L(1, 0), L(-1, 1))
    assert (x, y) == (Fraction(1, 2), Fraction(1, 2))


def test_duplicate_slope():
    with pytest.raises(DuplicateSlope):
        lines_to_diagram(LineArrangement((L(1, 0), L(1, 3))))


def test_concurrent_lines():
    with pytest.raises(ConcurrentLines, match=r"lines \(0, 1, 2\) meet at one point"):
        lines_to_diagram(LineArrangement((L(0, 0), L(1, 0), L(-1, 0))))
    # every line through the point is named, not just the first two pairs
    with pytest.raises(ConcurrentLines, match=r"lines \(0, 2, 3, 4\) meet at one point"):
        lines_to_diagram(LineArrangement((L(2, 0), L(5, 7), L(1, 0), L(-1, 0), L(3, 0))))


def test_four_lines_unique_class():
    arr = LineArrangement(THREE_LINES + (L(3, -5),))
    res = lines_to_diagram(arr)
    assert isomorphic(res.diagram, validate_wiring(4, [2, 1, 3, 2, 1, 3]))


def test_frac_str_roundtrip():
    for f in (Fraction(3), Fraction(-7, 2), Fraction(0)):
        assert parse_frac(frac_str(f)) == f
    assert parse_frac("0.25") == Fraction(1, 4)


@pytest.mark.parametrize("value", ["1e5", "2.5E-3", "1e999999999", 1, 0.5])
def test_parse_frac_rejects_exponents_and_non_strings(value):
    # Fraction("1e999999999") would build an integer of a billion digits
    with pytest.raises(ValueError):
        parse_frac(value)


def outcome(sweep, lines):
    """Diagram and wire map of a sweep, or the type of the error it raises."""
    try:
        res = sweep(LineArrangement(tuple(lines)))
    except (ConcurrentLines, DuplicateSlope) as e:
        return type(e)
    return res.diagram, res.wire_of_line


def assert_matches_oracle(lines):
    got = outcome(lines_to_diagram, lines)
    assert got == outcome(lines_oracle.lines_to_diagram, lines)
    return got


def random_lines(rng):
    # narrow ranges make parallel, concurrent and equal-x crossings common
    r = rng.choice((2, 3, 1000))
    frac = lambda: Fraction(rng.randint(-r, r), rng.randint(1, r))  # noqa: E731
    return [Line(frac(), frac()) for _ in range(rng.randint(2, 9))]


def test_matches_fraction_oracle_on_random_arrangements():
    kinds = set()
    for seed in range(200):
        got = assert_matches_oracle(random_lines(random.Random(seed)))
        kinds.add(got if isinstance(got, type) else tuple)
    assert kinds == {tuple, ConcurrentLines, DuplicateSlope}


def test_equal_x_different_y():
    # swept in (i, j) order
    d, _ = assert_matches_oracle(EQUAL_X_LINES)
    assert d.swaps[6:9] == (5, 3, 1)


def test_crossings_closer_than_the_key_resolution():
    # the crossings at x = 1, 1 + 2^-80 and 1 + 2^-79 would share a fixed
    # 64-bit key floor(x * 2^64)
    seen = set()
    for lines in itertools.permutations(CLOSE_LINES):
        seen.add(assert_matches_oracle(lines)[0].swaps)
    # y = 0 crosses y = x - 1 first, at x = 1, then y = 2x - 2 - 2^-79
    assert seen == {(1, 2, 1)}


def test_concurrency_in_a_tied_key():
    # lines through the origin, and a crossing at x = 2^-70: same 64-bit key 0
    apart = [L(5, 7), Line(Fraction(-5), 7 + Fraction(10, 2**70))]
    for through in ([L(0, 0), L(1, 0), L(-1, 0)], [L(0, 0), L(1, 0), L(-1, 0), L(2, 0)]):
        for lines in (through + apart, apart + through, through[:1] + apart + through[1:]):
            assert assert_matches_oracle(lines) is ConcurrentLines
    assert isinstance(assert_matches_oracle(apart + [L(0, 0), L(1, 0)]), tuple)


def test_duplicate_slopes_match_oracle():
    assert assert_matches_oracle([L(1, 0), L(2, 0), L(1, 3)]) is DuplicateSlope
    # parallel lines are reported before concurrent ones
    assert assert_matches_oracle([L(0, 0), L(1, 0), L(-1, 0), L(1, 4)]) is DuplicateSlope


def test_realized_n32_matches_oracle():
    rng = random.Random(32)
    half = tuple(rng.randint(0, 1) for _ in range(16))
    d = build_arrangement(16, half + tuple(1 - b for b in half))[1]
    assert isinstance(assert_matches_oracle(realize_im(d).lines), tuple)


def test_a_run_of_one_key_sweeps_in_n_log_n():
    # all 8,128 crossings would share the 64-bit key floor(x * 2^64) = -1,
    # and each x holds up to 64 crossings at distinct y
    t0 = time.perf_counter()
    res = lines_to_diagram(LineArrangement(ONE_KEY_LINES))
    assert time.perf_counter() - t0 < 1
    assert outcome(lines_oracle.lines_to_diagram, ONE_KEY_LINES) == (res.diagram, res.wire_of_line)


def test_the_swept_words_pass_validate_wiring():
    # lines_to_diagram builds its word without validate_wiring: every pair
    # crosses once, at adjacent tracks, so each word must pass it unchanged
    fixtures = [THREE_LINES, THREE_LINES + (L(3, -5),), EQUAL_X_LINES, ONE_KEY_LINES,
                *itertools.permutations(CLOSE_LINES),
                *(random_lines(random.Random(seed)) for seed in range(200))]
    swept = 0
    for lines in fixtures:
        got = outcome(lines_to_diagram, lines)
        if isinstance(got, tuple):
            d = got[0]
            assert validate_wiring(d.n, d.swaps) == d
            swept += 1
    assert swept == 109
