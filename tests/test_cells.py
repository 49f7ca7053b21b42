import pytest

from pseudoline.cells import build_cell_complex
from pseudoline.enumeration import raw_words
from pseudoline.sweep import census_sides
from pseudoline.wiring import WiringDiagram, validate_wiring


def test_triangle_n3():
    cx = build_cell_complex(validate_wiring(3, [1, 2, 1]))
    bounded = cx.bounded_faces()
    assert len(bounded) == 1
    assert cx.face_side_count(bounded[0]) == 3
    assert cx.face_wires(bounded[0]) == {1, 2, 3}


def test_census_n4():
    cx = build_cell_complex(validate_wiring(4, [2, 1, 3, 2, 1, 3]))
    sides = sorted(cx.face_side_count(f) for f in cx.bounded_faces())
    assert sides == [3, 3, 4]


def test_counts():
    d = validate_wiring(4, [2, 1, 3, 2, 1, 3])
    cx = build_cell_complex(d)
    assert cx.num_vertices == 6
    assert cx.num_edges == 16  # n segments/rays per wire
    assert cx.num_faces == 11
    assert cx.euler_identity()


def test_twin_and_boundary():
    d = validate_wiring(5, [1, 2, 1, 3, 4, 3, 2, 1, 3, 2])
    cx = build_cell_complex(d)
    assert cx.twin_consistent()
    for f in cx.bounded_faces():
        cycle = cx.boundary_cycle(f)
        assert len(cycle) == cx.face_side_count(f)
        assert len(set(cycle)) == len(cycle)
        for e in cycle:
            assert cx.twin(e, f) != f
            assert f in (cx.sw.upper_face[e], cx.sw.lower_face[e])


def test_edge_span_rays():
    d = validate_wiring(3, [1, 2, 1])
    cx = build_cell_complex(d)
    for w in range(1, 4):
        eids = list(cx.wire_edge_ids(w))
        assert cx.edge_span(eids[0])[0] is None  # left ray
        assert cx.edge_span(eids[-1])[1] is None  # right ray
        steps = cx.wire_crossing_steps(w)
        assert steps == sorted(steps)


def test_vertex_edges():
    d = validate_wiring(3, [1, 2, 1])
    cx = build_cell_complex(d)
    for s in range(cx.num_vertices):
        edges = cx.vertex_edges(s)
        assert len(edges) == 4
        wires = {cx.edge_wire(e) for e in edges}
        c = cx.crossings[s]
        assert wires == {c.wire_a, c.wire_b}


def test_crossing_step_map():
    d = validate_wiring(4, [2, 1, 3, 2, 1, 3])
    cx = build_cell_complex(d)
    assert set(cx.crossing_step) == {
        (a, b) for a in range(1, 5) for b in range(a + 1, 5)
    }


@pytest.mark.parametrize("n", [3, 4, 5])
def test_bounded_count_formula_small(n):
    for word in raw_words(n):
        cx = build_cell_complex(WiringDiagram(n, word))
        assert len(cx.bounded_faces()) == 1 + n * (n - 3) // 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_census_sides_matches_cell_complex(n):
    for word in raw_words(n):
        cx = build_cell_complex(WiringDiagram(n, word))
        expected = sorted(cx.face_side_count(f) for f in cx.bounded_faces())
        assert census_sides(n, word) == expected


def test_unbounded_face_count():
    # 2n unbounded cells for n >= 2
    d = validate_wiring(4, [2, 1, 3, 2, 1, 3])
    cx = build_cell_complex(d)
    unbounded = [f for f in range(cx.num_faces) if not cx.face_bounded(f)]
    assert len(unbounded) == 8
