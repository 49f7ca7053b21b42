"""Exhaustive generation of wiring diagrams for small wire counts.

Backtracking over swap sequences with the cross-each-pair-once pruning rule
yields every valid word exactly once, in lexicographic track order.  Swaps on
tracks t, t' with |t - t'| >= 2 commute, and two words that differ only by
such swaps describe the same arrangement.  With ``classes=True`` the search
also prunes every word that is not the lex-smallest of its commutation class
(its normal form; Anisimov & Knuth 1979, Cartier & Foata 1969), so it yields
one word per arrangement: 62 instead of 768 at n = 5 (OEIS A006245 vs
A005118).  Dedup mode keeps the lex-first word of each isomorphism class.  The
canonical form (see ``isomorphism``) is the least normal word over all
markings of an arrangement, and the class walk visits normal words in lex
order, so a word is the first of its isomorphism class exactly when it is its
own canonical word: orderly generation (Read, "Every one a winner", 1978).
Each word is decided on its own, so dedup keeps no memory across words and a
walk below any prefix keeps exactly the words the full walk keeps there.  The
filters are invariants of the arrangement: they keep or drop whole classes.
Both read the word's side counts (``census_sides``): ``one-ge5`` keeps exactly
one (>=5)-gon, ``im`` a lone n-gon, which is Im (``analysis.is_in_Im``).
"""

from __future__ import annotations

from typing import Callable, Iterator

from .errors import NTooLarge
from .isomorphism import canonical_form
from .sweep import census_sides
from .wiring import WiringDiagram

__all__ = ["enumerate_simple", "is_normal", "raw_words", "MAX_N"]

MAX_N = 7  # n = 8: 1,232,944 classes (~1 min just to list), 4.9e13 words


def raw_words(
    n: int, prefix: tuple[int, ...] = (), classes: bool = False
) -> Iterator[tuple[int, ...]]:
    """All valid swap words for n wires, optionally below a fixed prefix.

    With ``classes`` set, only the lex-normal word of each commutation class,
    still in lexicographic order (see ``is_normal``); a prefix that is not
    normal is invalid.
    """
    total = n * (n - 1) // 2
    perm = list(range(1, n + 1))
    crossed = [[False] * (n + 1) for _ in range(n + 1)]
    word: list[int] = []

    def apply(t: int) -> bool:
        u, v = perm[t - 1], perm[t]
        if crossed[u][v] or (classes and word and word[-1] >= t + 2):
            return False
        crossed[u][v] = crossed[v][u] = True
        perm[t - 1], perm[t] = v, u
        word.append(t)
        return True

    def undo() -> None:
        t = word.pop()
        v, u = perm[t - 1], perm[t]
        perm[t - 1], perm[t] = u, v
        crossed[u][v] = crossed[v][u] = False

    for t in prefix:
        if not apply(t):
            raise ValueError(f"invalid prefix {prefix}")

    def rec() -> Iterator[tuple[int, ...]]:
        if len(word) == total:
            yield tuple(word)
            return
        for t in range(1, n):
            if apply(t):
                yield from rec()
                undo()

    yield from rec()


def is_normal(word: tuple[int, ...]) -> bool:
    """Whether a word is the lex-normal word of its commutation class.

    A word is not normal when some letter s is followed, past letters that all
    commute with t, by a letter t < s that commutes with s: t could move in
    front of s.  Those letters lie at least 2 below or above t, and s >= t + 2,
    so the walk from s down to t steps down by 2 or more somewhere: it is
    enough to look at adjacent letters.
    """
    return all(s < t + 2 for s, t in zip(word, word[1:]))


def _ge5_sides(n: int, word: tuple[int, ...]) -> list[int]:
    return [s for s in census_sides(n, word) if s >= 5]


_FILTERS: dict[str, Callable[[int, tuple[int, ...]], bool]] = {
    "one-ge5": lambda n, w: len(_ge5_sides(n, w)) == 1,
    "im": lambda n, w: _ge5_sides(n, w) == [n],
}


def enumerate_simple(
    n: int, filter: str | None = None, dedup: bool = False, prefix: tuple[int, ...] = ()
) -> Iterator[WiringDiagram]:
    """The diagrams on n wires whose words start with ``prefix``, in lex order.

    With ``dedup``, only the words that are their own canonical words: one
    per isomorphism class.  ``n`` and ``filter`` are checked here, before
    the first diagram is asked for; the diagrams come from a one-pass
    generator.
    """
    if not 1 <= n <= MAX_N:
        raise NTooLarge(f"n={n} outside [1, {MAX_N}]")
    if filter is not None and filter not in _FILTERS:
        raise ValueError(f"unknown filter {filter!r}; choose from {sorted(_FILTERS)}")

    def gen() -> Iterator[WiringDiagram]:
        pred = _FILTERS[filter] if filter else None
        for word in raw_words(n, prefix, classes=dedup):
            if pred is not None and not pred(n, word):
                continue
            d = WiringDiagram(n, word)
            if dedup and canonical_form(d).word != word:
                continue
            yield d

    return gen()
