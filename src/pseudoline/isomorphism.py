"""Isomorphism of arrangements by canonical markings.

Two arrangements are combinatorially equivalent when there is an incidence
and dimension preserving bijection between their cell decompositions,
unbounded cells included.  The 2n unbounded cells lie in a cycle around
infinity, and such a bijection maps that cycle by a rotation or a
reflection, so an arrangement has 4n markings: a choice of the top
unbounded cell, times a mirror.  Each marking is a wiring diagram, rebuilt
from the local sequences (the order in which each wire crosses the others;
Goodman & Pollack 1984, Felsner ch. 6).  Moving the top cell one step on
moves the top wire to the bottom of the left order and reverses its local
sequence; the mirror reads the left order bottom to top.  The canonical
form is the least lex-normal word over the 4n markings, a complete
invariant computed with O(n^3) integer work, and ``find_isomorphism`` pairs
the wires of two best markings position by position.
"""

from __future__ import annotations

from typing import NamedTuple

from .cells import CellComplex
from .wiring import WiringDiagram

__all__ = [
    "CanonicalCertificate",
    "CellIso",
    "canonical_form",
    "isomorphic",
    "find_isomorphism",
]


class CanonicalCertificate(NamedTuple):
    """The wire count and the least lex-normal word over all markings."""

    n: int
    word: tuple[int, ...]


class _Marking(NamedTuple):
    word: tuple[int, ...]
    order: list[int]  # wires at the left, top to bottom
    flipped: list[bool]  # per wire: read right to left
    mirrored: bool  # the marking reflects the plane


def _word(order: list[int], seqs: list[tuple[int, ...]],
          best: tuple[int, ...] | None) -> tuple[int, ...] | None:
    """The lex-normal word of a marking, or None once it exceeds ``best``.

    ``seqs[w]`` is wire w's local sequence in the marking's direction,
    ending in a 0 that matches no wire.  A track is ready when its two wires
    are each other's next partner; swapping the smallest ready track at
    every step yields the least word of the commutation class.  A swap at t
    leaves the tracks below t - 1 as they were, not ready, so the search for
    the next one starts at t - 1: O(n^2) steps per marking.
    """
    n = len(order)
    perm = list(order)
    at = [0] * (n + 1)  # per wire, the index of its next partner
    word = []
    tied = best is not None
    t = 1
    for k in range(n * (n - 1) // 2):
        last = best[k] if tied else n - 1
        while True:
            if t > last:
                return None
            u, v = perm[t - 1], perm[t]
            if seqs[u][at[u]] == v and seqs[v][at[v]] == u:
                break
            t += 1
        if tied:
            tied = t == last
        word.append(t)
        perm[t - 1], perm[t] = v, u
        at[u] += 1
        at[v] += 1
        if t > 1:
            t -= 1
    return tuple(word)


def _best_marking(d: WiringDiagram) -> _Marking:
    """The first of the 4n markings whose word is least."""
    local = d.local_sequences()
    forward = [()] + [local[w] + (0,) for w in range(1, d.n + 1)]
    backward = [()] + [local[w][::-1] + (0,) for w in range(1, d.n + 1)]
    order = list(range(1, d.n + 1))
    flipped = [False] * (d.n + 1)
    best = None
    for _ in range(2 * d.n):
        seqs = [backward[w] if flipped[w] else forward[w] for w in range(d.n + 1)]
        for left, mirrored in ((order, False), (order[::-1], True)):
            word = _word(left, seqs, best.word if best else None)
            if word is not None and (best is None or word < best.word):
                best = _Marking(word, list(left), list(flipped), mirrored)
        # next top cell: the top wire's left end is now its right end
        w = order.pop(0)
        order.append(w)
        flipped[w] = not flipped[w]
    return best


def canonical_form(d: WiringDiagram) -> CanonicalCertificate:
    return CanonicalCertificate(d.n, _best_marking(d).word)


def isomorphic(d1: WiringDiagram, d2: WiringDiagram) -> bool:
    return canonical_form(d1) == canonical_form(d2)


class CellIso(NamedTuple):
    vertex_map: dict[int, int]
    edge_map: dict[int, int]
    face_map: dict[int, int]
    wire_map: dict[int, int]


def find_isomorphism(d1: WiringDiagram, d2: WiringDiagram) -> CellIso | None:
    """An explicit cell bijection realizing equivalence, or None.

    Two best markings with one word are one diagram, so the wires at each
    left position correspond.  A crossing goes to the crossing of the image
    wires, edge j of a wire to edge j (or n-1-j, when the map reverses the
    wire) of its image, and the face above an edge to the face above or
    below the image edge.
    """
    m1, m2 = _best_marking(d1), _best_marking(d2)
    if m1.word != m2.word:
        return None
    n = d1.n
    wire_map = dict(zip(m1.order, m2.order))
    cx1, cx2 = CellComplex(d1), CellComplex(d2)
    vertex_map = {}
    for (a, b), s in cx1.crossing_step.items():
        vertex_map[s] = cx2.step_of(wire_map[a], wire_map[b])
    up1, lo1, up2, lo2 = cx1.sw.upper_face, cx1.sw.lower_face, cx2.sw.upper_face, cx2.sw.lower_face
    edge_map, face_map = {}, {}
    for w, w2 in wire_map.items():
        kept = m1.flipped[w] == m2.flipped[w2]
        # the face on a wire's left stays on the left of its image when the
        # map keeps both the wire's direction and the plane's orientation
        same_side = kept == (m1.mirrored == m2.mirrored)
        for j in range(n):
            e = (w - 1) * n + j
            e2 = (w2 - 1) * n + (j if kept else n - 1 - j)
            edge_map[e] = e2
            face_map[up1[e]] = up2[e2] if same_side else lo2[e2]
            face_map[lo1[e]] = lo2[e2] if same_side else up2[e2]
    return CellIso(vertex_map, edge_map, face_map, wire_map)
