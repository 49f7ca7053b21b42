import random

import pytest
from hypothesis import given, settings

from pseudoline.cells import CellComplex
from pseudoline.enumeration import raw_words
from pseudoline.isomorphism import canonical_form, find_isomorphism, isomorphic
from pseudoline.necklace import build_arrangement
from pseudoline.wiring import WiringDiagram, validate_wiring

from reflections import mirror_vertical, reverse_sweep
from test_wiring import valid_diagrams
from wl_oracle import wl_certificate

UNIQUE_4 = validate_wiring(4, [2, 1, 3, 2, 1, 3])
ASYMMETRIC_6 = validate_wiring(6, [1, 2, 1, 3, 2, 1, 4, 3, 2, 5, 4, 3, 2, 1, 2])
SYMMETRIC_8 = build_arrangement(4, (0, 0, 0, 0, 1, 1, 1, 1))[1]


def move_top_cell(d):
    """The diagram with the next unbounded cell on top, rebuilt by a plain sweep.

    Wire 1 moves from the top to the bottom of the left order and is read
    right to left; the sweep swaps the largest track whose wires are each
    other's next partner, so it picks another word of the class than the
    canonical form's sweep does.
    """
    seqs = {w: list(s[::-1] if w == 1 else s) for w, s in d.local_sequences().items()}
    perm = list(range(2, d.n + 1)) + [1]
    swaps = []
    while len(swaps) < d.num_steps:
        t = max(t for t in range(1, d.n)
                if seqs[perm[t - 1]][:1] == [perm[t]] and seqs[perm[t]][:1] == [perm[t - 1]])
        u, v = perm[t - 1], perm[t]
        seqs[u].pop(0)
        seqs[v].pop(0)
        perm[t - 1], perm[t] = v, u
        swaps.append(t)
    return validate_wiring(d.n, swaps)


def markings(d):
    """The diagrams of all 4n markings of ``d``: 2n top cells, each mirrored or not."""
    out = []
    for _ in range(2 * d.n):
        out += [d, mirror_vertical(d)]
        d = move_top_cell(d)
    return out


def class_key(d):
    """Equal exactly for two words of one commutation class: labels are left positions."""
    return tuple(sorted(d.local_sequences().items()))


def assert_cell_iso(d1, d2, iso):
    """``iso`` is a bijection in each dimension that keeps every incidence."""
    cx1, cx2 = CellComplex(d1), CellComplex(d2)
    n = d1.n
    assert sorted(iso.wire_map) == sorted(iso.wire_map.values()) == list(range(1, n + 1))
    assert sorted(iso.vertex_map) == sorted(iso.vertex_map.values()) == list(range(cx2.num_vertices))
    assert sorted(iso.edge_map) == sorted(iso.edge_map.values()) == list(range(cx2.num_edges))
    assert sorted(iso.face_map) == sorted(iso.face_map.values()) == list(range(cx2.num_faces))
    for e in range(cx1.num_edges):
        e2 = iso.edge_map[e]
        assert cx2.edge_wire(e2) == iso.wire_map[cx1.edge_wire(e)]
        ends = {iso.vertex_map[s] for s in cx1.edge_span(e) if s is not None}
        assert ends == {s for s in cx2.edge_span(e2) if s is not None}
        faces = {iso.face_map[f] for f in (cx1.sw.upper_face[e], cx1.sw.lower_face[e])}
        assert faces == {cx2.sw.upper_face[e2], cx2.sw.lower_face[e2]}


@given(valid_diagrams)
@settings(max_examples=40, deadline=None)
def test_reflections_preserve_certificate(d):
    cert = canonical_form(d)
    assert canonical_form(mirror_vertical(d)) == cert
    assert canonical_form(reverse_sweep(d)) == cert


@given(valid_diagrams)
@settings(max_examples=40, deadline=None)
def test_moving_the_top_cell_preserves_certificate(d):
    moved = markings(d)
    assert class_key(move_top_cell(moved[-2])) == class_key(d)  # 2n moves go round
    assert {canonical_form(m) for m in moved} == {canonical_form(d)}
    # the oracle agrees that the moved diagram is the same arrangement
    assert wl_certificate(moved[2]) == wl_certificate(d)


@pytest.mark.parametrize("n", range(1, 7))
def test_partition_matches_wl_oracle(n):
    ds = [WiringDiagram(n, w) for w in raw_words(n, classes=True)]
    pairs = {(canonical_form(d), wl_certificate(d)) for d in ds}
    assert len(pairs) == len({p[0] for p in pairs}) == len({p[1] for p in pairs})


def test_partition_matches_wl_oracle_n7_sample():
    words = random.Random(20100823).sample(list(raw_words(7, classes=True)), 500)
    ds = [WiringDiagram(7, w) for w in words]
    pairs = {(canonical_form(d), wl_certificate(d)) for d in ds}
    forms = {p[0] for p in pairs}
    assert len(pairs) == len(forms) == len({p[1] for p in pairs})
    assert len(forms) < len(ds)  # the sample holds isomorphic classes


@pytest.mark.parametrize("n", range(1, 6))
def test_every_word_gets_its_class_form(n):
    form_of = {}
    for w in raw_words(n, classes=True):
        d = WiringDiagram(n, w)
        form_of[class_key(d)] = canonical_form(d)
    for w in raw_words(n):
        d = WiringDiagram(n, w)
        assert canonical_form(d) == form_of[class_key(d)]


@pytest.mark.parametrize("d,count", [(ASYMMETRIC_6, 24), (SYMMETRIC_8, 16)],
                         ids=["asymmetric6", "symmetric8"])
def test_distinct_markings(d, count):
    """The 4n markings give 4n diagrams over the number of symmetries:
    the identity alone for ASYMMETRIC_6, one more for SYMMETRIC_8."""
    assert len({class_key(m) for m in markings(d)}) == count


@pytest.mark.parametrize("d", [ASYMMETRIC_6, SYMMETRIC_8], ids=["asymmetric6", "symmetric8"])
def test_find_isomorphism_keeps_every_incidence(d):
    for other in markings(d)[1::3] + [reverse_sweep(d)]:
        assert_cell_iso(d, other, find_isomorphism(d, other))


def test_find_isomorphism_of_a_half_turn_reverses_every_wire():
    d = ASYMMETRIC_6
    iso = find_isomorphism(d, mirror_vertical(reverse_sweep(d)))
    # without symmetries the half turn is the only isomorphism
    assert iso.wire_map == {w: w for w in range(1, 7)}
    assert iso.edge_map == {e: e - e % 6 + 5 - e % 6 for e in range(36)}


def test_isomorphic_n4_all_words():
    certs = {canonical_form(WiringDiagram(4, w)) for w in raw_words(4)}
    assert len(certs) == 1


def test_not_isomorphic_across_n():
    assert not isomorphic(UNIQUE_4, validate_wiring(3, [1, 2, 1]))


def test_distinct_n5_classes():
    a = validate_wiring(5, [1, 2, 1, 3, 4, 3, 2, 1, 3, 2])  # has a pentagon
    b = validate_wiring(5, [1, 2, 1, 3, 2, 1, 4, 3, 2, 1])  # no (>=5)-gon
    assert not isomorphic(a, b)
    assert isomorphic(a, mirror_vertical(a))


def test_find_isomorphism_is_incidence_preserving():
    d1 = UNIQUE_4
    d2 = reverse_sweep(d1)
    iso = find_isomorphism(d1, d2)
    assert iso is not None
    cx1, cx2 = CellComplex(d1), CellComplex(d2)
    # bijections on each dimension
    assert sorted(iso.vertex_map.values()) == list(range(cx2.num_vertices))
    assert sorted(iso.edge_map.values()) == list(range(cx2.num_edges))
    assert sorted(iso.face_map.values()) == list(range(cx2.num_faces))
    # edge-face incidence carries over
    for e in range(cx1.num_edges):
        src = {cx1.sw.upper_face[e], cx1.sw.lower_face[e]}
        e2 = iso.edge_map[e]
        dst = {cx2.sw.upper_face[e2], cx2.sw.lower_face[e2]}
        assert {iso.face_map[f] for f in src} == dst
    # wires map to wires
    assert sorted(iso.wire_map.values()) == [1, 2, 3, 4]


def test_find_isomorphism_none_when_different():
    a = validate_wiring(5, [1, 2, 1, 3, 4, 3, 2, 1, 3, 2])
    b = validate_wiring(5, [1, 2, 1, 3, 2, 1, 4, 3, 2, 1])
    assert find_isomorphism(a, b) is None
