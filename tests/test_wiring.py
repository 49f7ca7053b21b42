import pytest
from hypothesis import given
from hypothesis import strategies as st

from pseudoline.errors import (
    BadTrack,
    DoubleCross,
    EmptySubset,
    ParseError,
    WrongLength,
)
from pseudoline.wiring import (
    WiringDiagram,
    format_diagram,
    induced_subarrangement,
    parse_diagram,
    validate_wiring,
)

from reflections import mirror_vertical, reverse_sweep


def random_word(n, rng):
    """A uniform-ish valid swap word, built by picking admissible tracks."""
    perm = list(range(1, n + 1))
    crossed = set()
    word = []
    while len(word) < n * (n - 1) // 2:
        choices = [
            t
            for t in range(1, n)
            if frozenset((perm[t - 1], perm[t])) not in crossed
        ]
        t = rng.choice(choices)
        crossed.add(frozenset((perm[t - 1], perm[t])))
        perm[t - 1], perm[t] = perm[t], perm[t - 1]
        word.append(t)
    return tuple(word)


valid_diagrams = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.randoms(use_true_random=False).map(
        lambda rng: validate_wiring(n, random_word(n, rng))
    )
)


def test_validate_basic():
    d = validate_wiring(3, [1, 2, 1])
    assert d.n == 3 and d.swaps == (1, 2, 1)
    assert d.num_steps == 3


def test_validate_single_wire():
    assert validate_wiring(1, []).swaps == ()


def test_wrong_length():
    with pytest.raises(WrongLength):
        validate_wiring(3, [1, 2])


def test_bad_track():
    with pytest.raises(BadTrack) as exc:
        validate_wiring(3, [1, 3, 1])
    assert exc.value.track == 3


def test_double_cross():
    with pytest.raises(DoubleCross) as exc:
        validate_wiring(3, [1, 1, 2])
    assert exc.value.pair == (1, 2)


def test_crossing_pairs():
    d = validate_wiring(3, [1, 2, 1])
    assert d.crossing_pairs() == [(1, 2), (1, 3), (2, 3)]


@given(valid_diagrams)
def test_mirror_and_reverse_are_valid(d):
    for other in (mirror_vertical(d), reverse_sweep(d)):
        assert validate_wiring(other.n, other.swaps) == other


@given(valid_diagrams)
def test_parse_format_roundtrip(d):
    assert parse_diagram(format_diagram(d)) == d


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_diagram("")
    with pytest.raises(ParseError):
        parse_diagram("x\n1 2 1\n")
    with pytest.raises(ParseError):
        parse_diagram("3\n1 z 1\n")
    with pytest.raises(ParseError):
        parse_diagram("3\n1 1 2\n")  # double cross surfaces as ParseError
    # text after the swaps, such as a second diagram
    for text, line in [("3\n1 2 1\n9 9\n", 3), ("3\n1 2 1\n3\n2 1 2\n", 3),
                       ("3\n1 2 1\n\n x\n", 4)]:
        with pytest.raises(ParseError) as exc:
            parse_diagram(text)
        assert exc.value.line == line
    assert parse_diagram("3\n1 2 1\n\n  \n") == WiringDiagram(3, (1, 2, 1))


def test_induced_identity():
    d = validate_wiring(4, [2, 1, 3, 2, 1, 3])
    ind = induced_subarrangement(d, [1, 2, 3, 4])
    assert ind.diagram == d
    assert ind.parent_step == tuple(range(6))


def test_induced_pair_order():
    # any two kept wires cross once, in the inherited position
    d = validate_wiring(4, [2, 1, 3, 2, 1, 3])
    ind = induced_subarrangement(d, [2, 4])
    assert ind.diagram.n == 2 and ind.diagram.swaps == (1,)
    assert ind.parent_step == (2,) and d.crossing_pairs()[2] == (2, 4)


def kept_crossings(d, ind, kept):
    """The child's crossing pairs in parent wires, and the parent's crossings
    between kept wires at the child's parent steps."""
    kept = sorted(kept)
    child = [(kept[u - 1], kept[v - 1]) for u, v in ind.diagram.crossing_pairs()]
    return child, [d.crossing_pairs()[s] for s in ind.parent_step]


def test_induced_triple_matches_crossing_order():
    d = validate_wiring(5, [1, 2, 1, 3, 2, 1, 4, 3, 2, 1])
    keep = [1, 3, 5]
    ind = induced_subarrangement(d, keep)
    # surviving parent steps, in order, are exactly the kept-pair crossings
    pairs = d.crossing_pairs()
    survivors = [
        s for s, (u, v) in enumerate(pairs) if u in keep and v in keep
    ]
    assert list(ind.parent_step) == survivors
    child, parent = kept_crossings(d, ind, keep)
    assert child == parent


@given(valid_diagrams, st.randoms(use_true_random=False))
def test_induced_crossings_are_the_kept_crossings(d, rng):
    # the child crosses its wires as the parent crosses the kept wires, step
    # for step, which fixes the child's word; it is valid unchecked
    keep = rng.sample(range(1, d.n + 1), rng.randint(1, d.n))
    ind = induced_subarrangement(d, keep)
    assert validate_wiring(ind.diagram.n, ind.diagram.swaps) == ind.diagram
    assert list(ind.parent_step) == [s for s, (u, v) in enumerate(d.crossing_pairs())
                                     if u in keep and v in keep]
    child, parent = kept_crossings(d, ind, keep)
    assert child == parent


def test_induced_errors():
    d = validate_wiring(3, [1, 2, 1])
    with pytest.raises(EmptySubset):
        induced_subarrangement(d, [])
    with pytest.raises(ValueError):
        induced_subarrangement(d, [1, 9])
