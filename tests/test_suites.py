import random

import pytest

from lemma_oracle import (
    triangle_region_edges,
    triangle_region_witnesses,
    uncrossed_edge_witnesses,
)
from pseudoline import suites, sweep, wiring
from pseudoline.cells import CellComplex
from pseudoline.enumeration import is_normal, raw_words
from pseudoline.suites import ALL_CHECKS, run_checks
from pseudoline.wiring import WiringDiagram, validate_wiring

SAMPLES = [
    validate_wiring(3, [1, 2, 1]),
    validate_wiring(4, [2, 1, 3, 2, 1, 3]),
    validate_wiring(5, [1, 2, 1, 3, 4, 3, 2, 1, 3, 2]),
    validate_wiring(6, [1, 2, 3, 2, 4, 3, 2, 5, 4, 3, 2, 1, 2, 3, 4]),
    validate_wiring(6, [1, 2, 1, 3, 2, 1, 4, 3, 5, 4, 3, 2, 1, 3, 2]),
]


@pytest.mark.parametrize("d", SAMPLES, ids=lambda d: f"n{d.n}")
def test_all_checks_pass_on_samples(d):
    results = run_checks(d)
    assert set(results) == set(ALL_CHECKS)
    assert all(results.values()), results


def test_exhaustive_n5():
    for word in raw_words(5):
        results = run_checks(WiringDiagram(5, word))
        assert all(results.values()), (word, results)


# Each check must be able to say False: a check that always answered True
# would pass every test above.  Each check gets the complex of a diagram with
# one sweep array tampered with.


def unbound(f):
    """Report face f as open towards -infinity, so it counts as unbounded."""
    return lambda sw: {"face_open": [-1 if g == f else x for g, x in enumerate(sw.face_open)]}


def swap_upper(e1, e2):
    """Exchange the faces above edges e1 and e2, which moves a side between faces."""
    def tamper(sw):
        up = list(sw.upper_face)
        up[e1], up[e2] = up[e2], up[e1]
        return {"upper_face": up}
    return tamper


def set_lower(e, f):
    """Point the face below edge e at the face id f."""
    return lambda sw: {"lower_face": [f if g == e else x for g, x in enumerate(sw.lower_face)]}


def rename(f, g):
    """Call face f by the id g on both sides of every edge: two faces merge."""
    return lambda sw: {key: [g if x == f else x for x in getattr(sw, key)]
                       for key in ("upper_face", "lower_face")}


@pytest.mark.parametrize(
    "name,n,word,tamper",
    [
        ("cell-formula", 3, (1, 2, 1), unbound(4)),
        ("triangle-per-wire", 3, (1, 2, 1), unbound(4)),
        ("counting", 5, (1, 2, 1, 3, 4, 3, 2, 1, 3, 2), unbound(6)),
        ("criticality-bound", 4, (1, 2, 1, 3, 2, 1), unbound(5)),
        ("im-structure", 5, (1, 2, 1, 3, 4, 3, 2, 1, 3, 2), swap_upper(0, 7)),
        ("no-shared-triangle-edge", 4, (1, 2, 1, 3, 2, 1), swap_upper(1, 10)),
        ("triangle-region-lemma", 3, (1, 2, 1), swap_upper(1, 3)),
        # no (>=5)-gon: the Leanos et al. counts, a triangle (5) or the
        # quadrilateral (6) of the n = 4 arrangement lost
        ("counting", 4, (1, 2, 1, 3, 2, 1), unbound(5)),
        ("counting", 4, (1, 2, 1, 3, 2, 1), unbound(6)),
        # an edge with no face below it; two faces under one id
        ("cell-formula", 4, (1, 2, 1, 3, 2, 1), set_lower(5, -1)),
        ("cell-formula", 4, (1, 2, 1, 3, 2, 1), rename(7, 8)),
        # the only (>=5)-gon, face 11, hands a side to a triangle
        ("uncrossed-edge-lemma", 6, (1, 2, 1, 3, 2, 1, 4, 3, 5, 4, 3, 2, 1, 3, 2),
         swap_upper(1, 9)),
        # a bounded face across an edge of P that is no triangle
        ("im-structure", 5, (1, 2, 1, 3, 4, 3, 2, 1, 3, 2), swap_upper(2, 13)),
    ],
)
def test_check_fails_on_a_tampered_complex(name, n, word, tamper):
    d = validate_wiring(n, word)
    check = ALL_CHECKS[name]
    assert check(CellComplex(d)) is True
    cx = CellComplex(d)
    cx.sw = cx.sw._replace(**tamper(cx.sw))
    assert check(cx) is False


def assert_prefix_verdict(cx):
    """The triangle lemma's prefix counts decide as the faces of each range do."""
    side = cx.face_side_count
    expected = all(any(side(f) == 3 for f in faces) for _, faces in _triangle_region_faces(cx))
    assert suites.check_triangle_region_lemma(cx) is expected
    return expected


def test_prefix_verdict_on_tampered_complexes():
    # moving faces between edges makes the verdict go both ways
    rng = random.Random(20100823)
    verdicts = set()
    for n in range(3, 6):
        for word in raw_words(n, classes=True):
            for _ in range(10):
                cx = CellComplex(WiringDiagram(n, word))
                cx.sw = cx.sw._replace(**swap_upper(*rng.sample(range(n * n), 2))(cx.sw))
                verdicts.add(assert_prefix_verdict(cx))
    assert verdicts == {True, False}


# The lemma checks against the probe-point oracle in ``lemma_oracle``: per
# key, the faces that witness the lemma must be the same set.
def _witnesses(keyed_faces, keep):
    return {key: {f for f in faces if keep(f)} for key, faces in keyed_faces}


def _triangle_region_faces(cx):
    """Per key, the faces on T's side of each edge in the key's range."""
    for key, (lo, hi, above) in triangle_region_edges(cx):
        yield key, (cx.sw.upper_face if above else cx.sw.lower_face)[lo:hi]


def _assert_same_witnesses(d):
    cx = CellComplex(d)
    side = cx.face_side_count
    got = _witnesses(_triangle_region_faces(cx), lambda f: side(f) == 3)
    assert got == triangle_region_witnesses(d, cx), d
    assert_prefix_verdict(cx)
    got = _witnesses(suites._uncrossed_edge_faces(cx), lambda f: side(f) >= 5)
    assert got == uncrossed_edge_witnesses(d, cx), d


@pytest.mark.parametrize("n", range(1, 7))
def test_lemma_witnesses_match_oracle_exhaustive(n):
    for word in raw_words(n, classes=True):
        _assert_same_witnesses(WiringDiagram(n, word))


def test_lemma_witnesses_match_oracle_n7_sample():
    words = list(raw_words(7, classes=True))
    for word in random.Random(20100823).sample(words, 150):
        _assert_same_witnesses(WiringDiagram(7, word))


def _random_word(n, rng):
    """A random swap word of n wires: cross a random adjacent pair that has
    not crossed yet, until every pair has.  Most such words are not the
    lex-normal word of their class."""
    perm, word = list(range(1, n + 1)), []
    while len(word) < n * (n - 1) // 2:
        t = rng.choice([t for t in range(1, n) if perm[t - 1] < perm[t]])
        perm[t - 1], perm[t] = perm[t], perm[t - 1]
        word.append(t)
    return tuple(word)


def test_lemma_witnesses_match_oracle_on_non_normal_words():
    # the chain pass reads crossings in word order, which commuting swaps change
    rng = random.Random(20100823)
    words = [(n, _random_word(n, rng)) for n, count in ((6, 100), (7, 30)) for _ in range(count)]
    assert sum(not is_normal(word) for _, word in words) > 100
    for n, word in words:
        _assert_same_witnesses(validate_wiring(n, word))


def test_uncrossed_edge_lemma_builds_no_subarrangement(monkeypatch):
    n7 = list(raw_words(7, classes=True))
    words = [(6, w) for w in raw_words(6, classes=True)]
    words += [(7, w) for w in random.Random(20100823).sample(n7, 150)]
    complexes = [CellComplex(WiringDiagram(n, word)) for n, word in words]
    calls = []

    def counted(name, f):
        return lambda *args: calls.append(name) or f(*args)

    monkeypatch.setattr(CellComplex, "__init__", counted("CellComplex", CellComplex.__init__))
    for module, name in ((wiring, "induced_subarrangement"), (sweep, "census_sides")):
        f = getattr(module, name)
        monkeypatch.setattr(module, name, counted(name, f))
        monkeypatch.setattr(suites, name, counted(name, f), raising=False)
    for cx in complexes:
        assert suites.check_uncrossed_edge_lemma(cx)
    assert calls == []
