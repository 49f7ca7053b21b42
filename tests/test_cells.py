import ast
import random
from pathlib import Path

import pytest

import pseudoline
from face_oracle import face_edges, scan_cycle
from pseudoline.analysis import face_census, find_unique_ge5
from pseudoline.cells import CellComplex
from pseudoline.enumeration import raw_words
from pseudoline.errors import MultipleGe5Gons
from pseudoline.suites import (
    check_criticality_bound,
    check_prop_triangle_per_wire,
    check_triangle_region_lemma,
)
from pseudoline.sweep import census_sides
from pseudoline.wiring import WiringDiagram, validate_wiring

from test_wiring import random_word


def test_triangle_n3():
    cx = CellComplex(validate_wiring(3, [1, 2, 1]))
    bounded = cx.bounded_faces()
    assert len(bounded) == 1
    assert cx.face_side_count(bounded[0]) == 3
    assert {cx.edge_wire(e) for e in face_edges(cx, bounded[0])} == {1, 2, 3}


def test_census_n4():
    cx = CellComplex(validate_wiring(4, [2, 1, 3, 2, 1, 3]))
    sides = sorted(cx.face_side_count(f) for f in cx.bounded_faces())
    assert sides == [3, 3, 4]


def test_counts():
    d = validate_wiring(4, [2, 1, 3, 2, 1, 3])
    cx = CellComplex(d)
    assert cx.num_vertices == 6
    assert cx.num_edges == 16  # n segments/rays per wire
    assert cx.num_faces == 11
    assert cx.euler_identity()


def test_twin_and_boundary():
    d = validate_wiring(5, [1, 2, 1, 3, 4, 3, 2, 1, 3, 2])
    cx = CellComplex(d)
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
    cx = CellComplex(d)
    for w in range(1, 4):
        eids = range((w - 1) * cx.n, w * cx.n)
        assert cx.edge_span(eids[0])[0] is None  # left ray
        assert cx.edge_span(eids[-1])[1] is None  # right ray
        steps = cx.wire_crossing_steps(w)
        assert steps == sorted(steps)


def test_crossing_step_map():
    d = validate_wiring(4, [2, 1, 3, 2, 1, 3])
    cx = CellComplex(d)
    assert set(cx.crossing_step) == {
        (a, b) for a in range(1, 5) for b in range(a + 1, 5)
    }


@pytest.mark.parametrize("n", [3, 4, 5])
def test_bounded_count_formula_small(n):
    for word in raw_words(n):
        cx = CellComplex(WiringDiagram(n, word))
        assert len(cx.bounded_faces()) == 1 + n * (n - 3) // 2


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_census_sides_matches_cell_complex(n):
    for word in raw_words(n):
        cx = CellComplex(WiringDiagram(n, word))
        expected = sorted(cx.face_side_count(f) for f in cx.bounded_faces())
        assert census_sides(n, word) == expected


@pytest.mark.parametrize("n,classes", [(1, False), (2, False), (3, False), (4, False),
                                       (5, False), (6, True)])
def test_a_face_meets_each_wire_in_at_most_one_edge(n, classes):
    # what analysis.is_in_Im rests on: a face's side count is its wire count
    for word in raw_words(n, classes=classes):
        cx = CellComplex(WiringDiagram(n, word))
        for f in range(cx.num_faces):
            edges = face_edges(cx, f)
            assert len({cx.edge_wire(e) for e in edges}) == len(edges)


@pytest.mark.parametrize("n", range(1, 7))
def test_face_sides_are_the_edge_list_lengths(n):
    # the face table is counted off the sweep arrays, unbounded faces included
    for word in raw_words(n, classes=True):
        cx = CellComplex(WiringDiagram(n, word))
        assert cx.face_sides == [len(face_edges(cx, f)) for f in range(cx.num_faces)]
        assert cx.bounded_faces() == tuple(f for f in range(cx.num_faces) if cx.face_bounded(f))


@pytest.mark.parametrize("read", [find_unique_ge5, face_census, CellComplex.bounded_faces,
                                  check_triangle_region_lemma, check_criticality_bound,
                                  check_prop_triangle_per_wire],
                         ids=lambda f: f.__name__)
def test_face_table_readers_build_no_edge_lists(read, monkeypatch):
    # no per-face edge lists exist; these readers walk no face boundary either
    walked = []
    walk = CellComplex.boundary_cycle
    monkeypatch.setattr(CellComplex, "boundary_cycle",
                        lambda cx, f: walked.append(f) or walk(cx, f))
    for n in (5, 6):
        for word in raw_words(n, classes=True):
            cx = CellComplex(WiringDiagram(n, word))
            try:
                read(cx)
            except MultipleGe5Gons:  # find_unique_ge5 on two (>=5)-gons
                pass
    assert walked == []


def _walk_samples():
    for n in range(1, 7):
        for word in raw_words(n, classes=True):
            yield WiringDiagram(n, word)
    rng = random.Random(20100823)
    for n, count in ((7, 200), (8, 100)):
        for _ in range(count):
            yield validate_wiring(n, random_word(n, rng))


def test_boundary_cycle_matches_a_scan_of_the_edge_arrays():
    faces = 0
    for d in _walk_samples():
        cx = CellComplex(d)
        for f in cx.bounded_faces():
            assert cx.boundary_cycle(f) == scan_cycle(cx, f), (d, f)
            faces += 1
    assert faces > 10_000


def test_boundary_cycle_rejects_an_unbounded_face():
    cx = CellComplex(validate_wiring(4, [2, 1, 3, 2, 1, 3]))
    for f in range(cx.num_faces):
        if not cx.face_bounded(f):
            with pytest.raises(ValueError, match="unbounded"):
                cx.boundary_cycle(f)


@pytest.mark.parametrize("step", [1, 3])
def test_boundary_cycle_raises_on_tampered_wire_steps(step):
    # wire 1's edges all made to end at one step: a chain that turns onto
    # them goes round without reaching the closing step, and the walk stops
    cx = CellComplex(validate_wiring(5, [1, 2, 1, 3, 4, 3, 2, 1, 3, 2]))
    ws = list(cx.sw.wire_steps)
    ws[:cx.n - 1] = [step] * (cx.n - 1)
    cx.sw = cx.sw._replace(wire_steps=ws)
    errors = []
    for f in cx.bounded_faces():
        try:
            cx.boundary_cycle(f)
        except ValueError as exc:
            errors.append(str(exc))
    assert any("has not closed after 5 edges" in e for e in errors), errors


def test_unbounded_face_count():
    # 2n unbounded cells for n >= 2
    d = validate_wiring(4, [2, 1, 3, 2, 1, 3])
    cx = CellComplex(d)
    unbounded = [f for f in range(cx.num_faces) if not cx.face_bounded(f)]
    assert len(unbounded) == 8


def test_only_is_in_Im_takes_a_diagram_and_its_complex():
    # A complex carries its diagram, so a function that reads cells takes the
    # complex alone.  is_in_Im keeps an optional complex: the enumeration
    # filter calls it on bare diagrams.
    both = []
    for path in sorted(Path(pseudoline.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs
                names = {p.arg for p in params}
                diagram = "d" in names or any(
                    p.annotation is not None and "WiringDiagram" in ast.unparse(p.annotation)
                    for p in params)
                if diagram and "cx" in names:
                    both.append(f"{path.stem}.{node.name}")
    assert both == ["analysis.is_in_Im"]


def test_every_definition_is_used_in_the_package():
    # No dead code: each function, class and method defined in the package
    # is named somewhere else in it, a listing in __all__ included.  Dunder
    # methods are called by the language.
    defined, used = [], set()
    for path in sorted(Path(pseudoline.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append((f"{path.stem}.{node.name}", node.name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used.update(ast.literal_eval(node.value))
    assert [where for where, name in defined if name not in used] == []
