"""Self-dual binary necklaces and the zonogon construction.

A necklace of length 2m is self-dual when opposite beads differ.  Each
necklace class yields a straight-line arrangement of 2m lines whose central
face is a 2m-gon: the lines support a zonogon, one pair per edge direction,
and each pair is tilted so that it crosses on the side dictated by its bead.
"""

from __future__ import annotations

from fractions import Fraction

from .analysis import is_in_Im
from .errors import EpsilonExhausted
from .lines import Line, LineArrangement, lines_to_diagram

__all__ = [
    "totient",
    "q_formula",
    "canonical_necklace",
    "enumerate_selfdual",
    "build_arrangement",
]


def totient(n: int) -> int:
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _check_m(m: int) -> None:
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")


def q_formula(m: int) -> int:
    """Number of self-dual necklaces of length 2m up to the dihedral action."""
    _check_m(m)
    odd_sum = sum(totient(k) * 2 ** (m // k) for k in range(1, m + 1) if m % k == 0 and k % 2 == 1)
    num = 2 * m * 2 ** ((m - 1) // 2) + odd_sum
    assert num % (4 * m) == 0
    return num // (4 * m)


def _dihedral_orbit(word: tuple[int, ...]):
    L = len(word)
    cur = word
    for _ in range(2):
        for r in range(L):
            yield cur[r:] + cur[:r]
        cur = cur[::-1]


def canonical_necklace(word: tuple[int, ...]) -> tuple[int, ...]:
    return min(_dihedral_orbit(word))


def enumerate_selfdual(m: int) -> list[tuple[int, ...]]:
    """Canonical representatives of self-dual necklaces of length 2m."""
    _check_m(m)
    seen = set()
    for bits in range(2 ** m):
        half = tuple((bits >> i) & 1 for i in range(m))
        full = half + tuple(1 - b for b in half)
        seen.add(canonical_necklace(full))
    return sorted(seen)


def _zonogon_lines(m: int, beads: tuple[int, ...], eps: Fraction) -> LineArrangement:
    # Support offsets of the zonogon sum of segments t*(1, j), t in [-1, 1].
    lines = [None] * (2 * m)
    for j in range(m):
        c = Fraction(sum(abs(i - j) for i in range(m)))
        x_mid = Fraction(m - 1 - 2 * j)  # midpoint of the slope-j upper edge
        delta = eps / (j + 1)
        if beads[j] == 1:
            delta = -delta  # pair crosses at positive x
        lines[j] = Line(Fraction(j), -c)
        lines[j + m] = Line(Fraction(j) + delta, c - delta * x_mid)
    return LineArrangement(tuple(lines))


def build_arrangement(m: int, beads: tuple[int, ...]) -> tuple[LineArrangement, "WiringDiagram"]:
    """Straight-line arrangement of 2m lines realizing the necklace class.

    The pairs are tilted by 1/3 over the slope index plus one.  For m >= 3
    the diagram must be in Im, its central face the one (>=5)-gon, a 2m-gon;
    EpsilonExhausted otherwise.  Four lines in general position bound exactly
    one quadrilateral, on all four, so m = 2 needs no check.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}: two lines have no central face")
    if len(beads) != 2 * m or any(beads[j] + beads[j + m] != 1 for j in range(m)):
        raise ValueError(f"beads must be a self-dual word of length {2 * m}: "
                         "bead j + m is 1 - bead j")
    arr = _zonogon_lines(m, beads, Fraction(1, 3))
    d = lines_to_diagram(arr).diagram
    if m >= 3 and not is_in_Im(d).member:
        raise EpsilonExhausted(f"the tilt 1/3 gives beads {beads} no central {2 * m}-gon")
    return arr, d

