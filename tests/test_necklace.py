import pytest

from face_oracle import face_edges
from pseudoline.analysis import face_census, is_in_Im
from pseudoline.cells import CellComplex
from pseudoline.isomorphism import isomorphic
from pseudoline.lines import lines_to_diagram
from pseudoline.necklace import (
    build_arrangement,
    canonical_necklace,
    enumerate_selfdual,
    q_formula,
    totient,
)


def brute_orbit_count(m):
    """Dihedral orbit count over all self-dual words, no formula."""
    seen = set()
    for bits in range(2 ** m):
        half = tuple((bits >> i) & 1 for i in range(m))
        seen.add(canonical_necklace(half + tuple(1 - b for b in half)))
    return len(seen)


def test_totient():
    assert [totient(k) for k in range(1, 11)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4]


@pytest.mark.parametrize("m", range(2, 13))
def test_formula_matches_brute_force(m):
    assert q_formula(m) == brute_orbit_count(m)


@pytest.mark.parametrize("m", [0, -1])
@pytest.mark.parametrize("fn", [q_formula, enumerate_selfdual])
def test_m_below_1_rejected(fn, m):
    with pytest.raises(ValueError, match=f"m must be >= 1, got {m}"):
        fn(m)


def test_small_counts():
    assert [q_formula(m) for m in range(2, 7)] == [1, 2, 2, 4, 5]


def test_enumerate_selfdual_consistency():
    for m in range(2, 9):
        reps = enumerate_selfdual(m)
        assert len(reps) == q_formula(m)
        for beads in reps:
            assert len(beads) == 2 * m
            assert all(beads[j] + beads[j + m] == 1 for j in range(m))
            assert canonical_necklace(beads) == beads


def test_build_hexagon():
    for beads in enumerate_selfdual(3):
        arr, d = build_arrangement(3, beads)
        assert arr.n == 6 and d.n == 6
        cx = CellComplex(d)
        assert is_in_Im(d, cx).member
        census = face_census(cx)
        assert census[6] == 1 and max(census.tally) == 6
        # reported diagram matches the geometry
        assert lines_to_diagram(arr).diagram == d


def test_build_m2_special_case():
    # 4 lines cannot carry a (>=5)-gon; the central cell is a 4-gon on all 4
    arr, d = build_arrangement(2, (0, 1, 1, 0))
    cx = CellComplex(d)
    assert any(
        cx.face_side_count(f) == 4 and len({cx.edge_wire(e) for e in face_edges(cx, f)}) == 4
        for f in cx.bounded_faces()
    )


def test_build_m4():
    beads = enumerate_selfdual(4)[0]
    _, d = build_arrangement(4, beads)
    assert d.n == 8 and is_in_Im(d).member


def test_bad_beads():
    with pytest.raises(ValueError):
        build_arrangement(3, (1, 1, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        build_arrangement(3, (0, 1))


def test_injectivity_m4():
    diagrams = [build_arrangement(4, b)[1] for b in enumerate_selfdual(4)]
    for i in range(len(diagrams)):
        for j in range(i + 1, len(diagrams)):
            assert not isomorphic(diagrams[i], diagrams[j])
