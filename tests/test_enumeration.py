import random
from math import comb

import pytest

from pseudoline.analysis import is_in_Im
from pseudoline.cells import CellComplex
from pseudoline.enumeration import MAX_N, enumerate_simple, is_normal, raw_words
from pseudoline.errors import NTooLarge
from pseudoline.isomorphism import canonical_form
from pseudoline.sweep import census_sides
from pseudoline.wiring import WiringDiagram, validate_wiring


@pytest.mark.parametrize("n,count", [(1, 1), (2, 1), (3, 2), (4, 16), (5, 768)])
def test_raw_counts(n, count):
    assert sum(1 for _ in raw_words(n)) == count


def test_raw_words_are_valid_and_distinct():
    words = list(raw_words(4))
    assert len(set(words)) == len(words)
    for w in words:
        validate_wiring(4, w)
    assert words == sorted(words)  # lexicographic order


def test_prefix_partition():
    total = sum(sum(1 for _ in raw_words(5, prefix=(t,))) for t in range(1, 5))
    assert total == 768
    with pytest.raises(ValueError):
        next(raw_words(3, prefix=(1, 1)))


# OEIS A006245: commutation classes of reduced words of the longest permutation
@pytest.mark.parametrize(
    "n,count", [(1, 1), (2, 1), (3, 2), (4, 8), (5, 62), (6, 908), (7, 24698)]
)
def test_class_counts(n, count):
    assert sum(1 for _ in raw_words(n, classes=True)) == count


# Classes with 0 / 1 / >= 2 (>=5)-gons.  Those with none number
# 2^(n-2) Cat(n-2): observed for n <= 7, not proved.
@pytest.mark.parametrize(
    "n,none,one,more",
    [(2, 1, 0, 0), (3, 2, 0, 0), (4, 8, 0, 0), (5, 40, 22, 0),
     (6, 224, 460, 224), (7, 1344, 6372, 16982)],
)
def test_class_counts_by_ge5_gons(n, none, one, more):
    tally = [0, 0, 0]
    for w in raw_words(n, classes=True):
        tally[min(2, sum(1 for s in census_sides(n, w) if s >= 5))] += 1
    assert tally == [none, one, more]
    assert none == 2 ** (n - 2) * comb(2 * (n - 2), n - 2) // (n - 1)


def test_classes_are_valid_distinct_and_sorted():
    classes = list(raw_words(6, classes=True))
    assert len(set(classes)) == len(classes)
    for w in classes:
        validate_wiring(6, w)
    assert classes == sorted(classes)


def test_classes_are_the_lex_first_words_of_their_classes():
    # Commuting swaps (|t - t'| >= 2) leave the arrangement, so its crossings
    # per wire in order, unchanged; each class's lex-first word is its
    # normal form.
    def local_sequences(n, word):
        perm = list(range(n))
        seqs = [[] for _ in range(n)]
        for t in word:
            u, v = perm[t - 1], perm[t]
            seqs[u].append(v)
            seqs[v].append(u)
            perm[t - 1], perm[t] = v, u
        return tuple(map(tuple, seqs))

    first = {}
    for w in raw_words(5):
        first.setdefault(local_sequences(5, w), w)
    assert list(raw_words(5, classes=True)) == sorted(first.values())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_is_normal_picks_the_classes(n):
    assert [w for w in raw_words(n) if is_normal(w)] == list(raw_words(n, classes=True))


def test_is_normal_catches_a_letter_that_moves_past_several():
    assert not is_normal((5, 6, 3))  # 3 commutes with 6 and 5: (3, 5, 6) is smaller
    assert is_normal((1, 3, 2, 4))


def test_class_prefix_partition():
    classes = list(raw_words(6, classes=True))
    by_prefix = [w for t in range(1, 6) for w in raw_words(6, prefix=(t,), classes=True)]
    assert by_prefix == classes
    below_21 = [w for w in classes if w[:2] == (2, 1)]
    assert list(raw_words(6, prefix=(2, 1), classes=True)) == below_21
    with pytest.raises(ValueError):
        next(raw_words(3, prefix=(1, 1), classes=True))  # not a valid word
    with pytest.raises(ValueError):
        next(raw_words(4, prefix=(3, 1), classes=True))  # 1 commutes with 3: (1, 3) is smaller
    assert next(raw_words(4, prefix=(3, 1))) == (3, 1, 2, 1, 3, 2)


def _first_of_each_form(n, words, filter):
    """Reference dedup: the first word of each canonical form among the
    ``words`` that pass ``filter``, found with a set of forms seen."""
    pred = {
        None: lambda w: True,
        "one-ge5": lambda w: sum(1 for s in census_sides(n, w) if s >= 5) == 1,
        "im": lambda w: is_in_Im(WiringDiagram(n, w)).member,
    }[filter]
    out, seen = [], set()
    for w in words:
        if pred(w):
            cert = canonical_form(WiringDiagram(n, w))
            if cert not in seen:
                seen.add(cert)
                out.append(w)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("filter", [None, "one-ge5", "im"])
def test_dedup_matches_word_level_reference(n, filter):
    got = [d.swaps for d in enumerate_simple(n, filter=filter, dedup=True)]
    assert got == _first_of_each_form(n, raw_words(n), filter)


@pytest.mark.parametrize("filter,count", [(None, 43), ("one-ge5", 21), ("im", 4)])
def test_dedup_matches_class_walk_reference(filter, count):
    got = [d.swaps for d in enumerate_simple(6, filter=filter, dedup=True)]
    assert got == _first_of_each_form(6, raw_words(6, classes=True), filter)
    assert len(got) == count


def test_dedup_prefix_partition():
    # each word is kept or dropped on its own, so shards keep what the full walk keeps
    full = [d.swaps for d in enumerate_simple(6, dedup=True)]
    by_prefix = [d.swaps for t in range(1, 6) for d in enumerate_simple(6, dedup=True, prefix=(t,))]
    assert by_prefix == full


def test_filter_one_ge5():
    for d in enumerate_simple(5, filter="one-ge5"):
        sides = census_sides(5, d.swaps)
        assert sum(1 for s in sides if s >= 5) == 1


def test_filter_im():
    ims = list(enumerate_simple(5, filter="im"))
    assert ims and all(is_in_Im(d).member for d in ims)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_im_filter_matches_is_in_Im_on_classes(n):
    # a word ending its own prefix is kept exactly when it passes the filter;
    # n = 7 checks a seeded sample of its 24,698 classes
    words = list(raw_words(n, classes=True))
    if n == 7:
        words = random.Random(20100823).sample(words, 2000)
    for w in words:
        kept = list(enumerate_simple(n, filter="im", prefix=w))
        assert bool(kept) == is_in_Im(WiringDiagram(n, w)).member


def test_im_filter_builds_no_cell_complex(monkeypatch):
    calls = []
    init = CellComplex.__init__
    monkeypatch.setattr(CellComplex, "__init__", lambda self, d: calls.append(d) or init(self, d))
    assert len(list(enumerate_simple(5, filter="im"))) == 212
    assert len(list(enumerate_simple(6, filter="im", dedup=True))) == 4
    assert not calls


def test_dedup_small():
    assert len(list(enumerate_simple(3, dedup=True))) == 1
    assert len(list(enumerate_simple(4, dedup=True))) == 1
    assert not list(enumerate_simple(4, filter="one-ge5", dedup=True))  # no (>=5)-gon fits in 4 wires


def test_dedup_im_n5():
    # distinct Im classes on 5 wires
    assert len(list(enumerate_simple(5, filter="im", dedup=True))) == 3


def test_caps():
    with pytest.raises(NTooLarge):
        enumerate_simple(0)
    with pytest.raises(NTooLarge):
        enumerate_simple(MAX_N + 1)
    with pytest.raises(ValueError):
        enumerate_simple(4, filter="nope")
