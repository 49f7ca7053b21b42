import json
import random

import pytest

import criticality_oracle
from face_oracle import face_edges

from pseudoline.analysis import (
    criticality_k,
    critical_edges,
    face_census,
    find_unique_ge5,
    is_in_Im,
    report_json,
    triangle_adjacency,
    verify_counting_theorem,
)
from pseudoline.cells import CellComplex
from pseudoline.enumeration import raw_words
from pseudoline.errors import MultipleGe5Gons, NoGe5Gon, UnboundedFace
from pseudoline.sweep import census_sides
from pseudoline.wiring import WiringDiagram, validate_wiring

from test_wiring import random_word

PENTAGON_5 = validate_wiring(5, [1, 2, 1, 3, 4, 3, 2, 1, 3, 2])
K2_SIX = validate_wiring(6, [1, 2, 1, 3, 2, 4, 3, 2, 1, 2, 5, 4, 3, 2, 1])
NON_IM_SIX = validate_wiring(6, [1, 2, 1, 3, 2, 1, 4, 3, 5, 4, 3, 2, 1, 3, 2])


def test_census_n4():
    cx = CellComplex(validate_wiring(4, [2, 1, 3, 2, 1, 3]))
    census = face_census(cx)
    assert census.tally == {3: 2, 4: 1}
    assert census.total == 3
    assert census[3] == 2 and census[5] == 0


def test_find_unique_ge5():
    cx = CellComplex(PENTAGON_5)
    p = find_unique_ge5(cx)
    assert p is not None and cx.face_side_count(p) == 5
    assert find_unique_ge5(CellComplex(validate_wiring(3, [1, 2, 1]))) is None


def test_critical_edges_unbounded_face_rejected():
    cx = CellComplex(validate_wiring(3, [1, 2, 1]))
    with pytest.raises(UnboundedFace):
        critical_edges(cx, 0)


def test_criticality_no_gon():
    with pytest.raises(NoGe5Gon):
        criticality_k(CellComplex(validate_wiring(4, [2, 1, 3, 2, 1, 3])))


def test_criticality_im_case_matches_direct_flags():
    # all wires on the gon: induced subarrangement is the identity
    cx = CellComplex(PENTAGON_5)
    rep = criticality_k(cx)
    assert rep.wires == (1, 2, 3, 4, 5)
    assert rep.edge_flags == critical_edges(cx, rep.face)
    assert rep.k == sum(rep.edge_flags.values())


def test_criticality_k2_six_wire_instance():
    # a 5-wire gon inside n=6 whose induced subarrangement is 2-critical
    rep = criticality_k(CellComplex(K2_SIX))
    assert len(rep.wires) == 5
    assert rep.k == 2


def one_ge5(n, words):
    """The complexes of the words on n wires with exactly one (>=5)-gon."""
    return [CellComplex(WiringDiagram(n, w)) for w in words
            if sum(s >= 5 for s in census_sides(n, w)) == 1]


def assert_flags_match_oracle(cxs):
    for cx in cxs:
        assert criticality_k(cx).edge_flags == criticality_oracle.edge_flags(cx), cx.diagram


@pytest.mark.parametrize("n", [5, 6])
def test_criticality_matches_subarrangement_on_every_class(n):
    cxs = one_ge5(n, raw_words(n, classes=True))
    assert len(cxs) == {5: 22, 6: 460}[n]
    assert_flags_match_oracle(cxs)


def test_criticality_matches_subarrangement_on_sampled_classes():
    cxs = one_ge5(7, raw_words(7, classes=True))
    assert len(cxs) == 6372
    assert_flags_match_oracle(random.Random(7).sample(cxs, 300))


@pytest.mark.parametrize("n", [8, 9, 10])
def test_criticality_matches_subarrangement_on_random_words(n):
    rng = random.Random(n)
    cxs = one_ge5(n, [random_word(n, rng) for _ in range(1000)])
    assert len(cxs) >= 40
    assert_flags_match_oracle(cxs)


def test_is_in_im():
    assert is_in_Im(PENTAGON_5).member
    res = is_in_Im(NON_IM_SIX)
    assert not res.member and res.witness is not None
    # the witness wire really has no edge on the gon
    cx = CellComplex(NON_IM_SIX)
    assert res.witness not in {cx.edge_wire(e) for e in face_edges(cx, find_unique_ge5(cx))}


def test_counting_theorem():
    thm = verify_counting_theorem(CellComplex(PENTAGON_5))
    assert thm.passed
    assert thm.observed_p3 == thm.n - thm.k
    assert thm.observed_p4 == thm.k + thm.n * (thm.n - 5) // 2


def test_triangle_adjacency():
    cx = CellComplex(PENTAGON_5)
    adj = triangle_adjacency(cx)
    assert set(adj) == {1, 2, 3, 4, 5}
    assert all(adj[w] for w in adj)


def test_report_json_keys_and_values():
    payload = json.loads(report_json(PENTAGON_5))
    assert sorted(payload) == [
        "census", "critical_edges", "im", "k", "n", "pass",
    ]
    assert payload["n"] == 5 and payload["im"] is True and payload["pass"] is True
    assert payload["census"]["5"] == 1


def test_report_json_no_gon():
    payload = json.loads(report_json(validate_wiring(3, [1, 2, 1])))
    assert payload["k"] is None and payload["pass"] is None
    assert payload["im"] is False
