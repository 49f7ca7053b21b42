"""Face classification, critical edges, criticality, and counting checks.

The counting fact being verified: an arrangement with exactly one (>=5)-gon P
has n - k triangles and k + n(n-5)/2 quadrilaterals, where k counts the edges
of P adjacent to an unbounded cell of the subarrangement induced by P's
wires.  k is read off P's own crossings; that subarrangement is never built.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from typing import NamedTuple

from .cells import CellComplex
from .errors import MultipleGe5Gons, NoGe5Gon, UnboundedFace
from .wiring import WiringDiagram

__all__ = [
    "FaceCensus",
    "CriticalityReport",
    "TheoremReport",
    "ImResult",
    "face_census",
    "find_unique_ge5",
    "critical_edges",
    "critical_flags",
    "criticality_k",
    "is_in_Im",
    "verify_counting_theorem",
    "triangle_adjacency",
    "report_json",
]


class FaceCensus(NamedTuple):
    tally: dict[int, int]  # side count -> number of bounded faces
    total: int

    def __getitem__(self, sides: int) -> int:
        return self.tally.get(sides, 0)


class CriticalityReport(NamedTuple):
    face: int  # the (>=5)-gon P in the full complex
    wires: tuple[int, ...]  # wires carrying edges of P
    k: int
    edge_flags: dict[int, bool]  # P's boundary edge id -> critical in induced


class TheoremReport(NamedTuple):
    n: int
    k: int
    observed_p3: int
    observed_p4: int
    expected_p3: int
    expected_p4: int
    passed: bool


class ImResult(NamedTuple):
    member: bool
    witness: int | None  # a wire without an edge on the gon, when not a member
    face: int | None = None  # the gon, when it is the only (>=5)-gon


def face_census(cx: CellComplex) -> FaceCensus:
    bounded, sides = cx.bounded_faces(), cx.face_sides
    return FaceCensus(dict(Counter(sides[f] for f in bounded)), len(bounded))


def find_unique_ge5(cx: CellComplex) -> int | None:
    sides = cx.face_sides
    hits = [f for f in cx.bounded_faces() if sides[f] >= 5]
    if not hits:
        return None
    if len(hits) > 1:
        raise MultipleGe5Gons(hits)
    return hits[0]


def critical_edges(cx: CellComplex, f: int) -> dict[int, bool]:
    """Per boundary edge of the bounded face ``f``, in ``boundary_cycle``
    order: is its twin unbounded."""
    if not cx.face_bounded(f):
        raise UnboundedFace(f"face {f}")
    return {e: not cx.face_bounded(cx.twin(e, f)) for e in cx.boundary_cycle(f)}


def criticality_k(cx: CellComplex) -> CriticalityReport:
    """Criticality of an arrangement with exactly one (>=5)-gon P.

    Let e be an edge of P on wire w, between the edges on wires a and c in
    P's boundary cycle.  e cuts the region on P's side of both a and c into
    P and a far part; a wire of P entering the far part could leave it only
    across a or c, away from P, and never bound P.  So the far part is the
    face across e in the subarrangement of P's wires, and it is unbounded
    (e counts toward k) exactly when a and c cross on P's side of w.
    """
    p = find_unique_ge5(cx)
    if p is None:
        raise NoGe5Gon(f"n={cx.n}")
    cycle = cx.boundary_cycle(p)
    flags = dict(zip(cycle, critical_flags(cx, cycle, p)))
    wires = tuple(sorted(cx.edge_wire(e) for e in cycle))
    return CriticalityReport(p, wires, sum(flags.values()), flags)


def critical_flags(cx: CellComplex, cycle: Sequence[int], p: int) -> list[bool]:
    """Per edge of ``cycle``, face p's boundary cycle or what is left of it
    after deleting wires: with its wire w between a and c in the cycle, do a
    and c cross on p's side of w?"""
    w, after, up = [cx.edge_wire(e) for e in cycle], cx.edge_after, cx.sw.upper_face
    # a is above b where it meets c: it starts above and meets c first, or below and b first
    return [((a < b) != (after[a][b] < after[a][c])) == (up[e] == p)
            for e, a, b, c in zip(cycle, w[-1:] + w[:-1], w, w[1:] + w[:1])]


def is_in_Im(d: WiringDiagram, cx: CellComplex | None = None) -> ImResult:
    """Membership in Im: one (>=5)-gon, with an edge on every wire.  A face
    meets a wire in at most one edge (a wire crossing w between two would be
    shut in by w and the face), so Im means the one (>=5)-gon has n sides."""
    cx = cx if cx is not None else CellComplex(d)
    try:
        p = find_unique_ge5(cx)
    except MultipleGe5Gons:
        return ImResult(False, None)
    if p is None:
        return ImResult(False, None)
    if cx.face_side_count(p) == d.n:
        return ImResult(True, None, p)
    wires = {cx.edge_wire(e) for e in cx.boundary_cycle(p)}
    return ImResult(False, min(w for w in range(1, d.n + 1) if w not in wires), p)


def verify_counting_theorem(cx: CellComplex) -> TheoremReport:
    rep = criticality_k(cx)
    census = face_census(cx)
    n, k = cx.n, rep.k
    expected_p3 = n - k
    expected_p4 = k + n * (n - 5) // 2
    observed_p3, observed_p4 = census[3], census[4]
    return TheoremReport(
        n,
        k,
        observed_p3,
        observed_p4,
        expected_p3,
        expected_p4,
        observed_p3 == expected_p3 and observed_p4 == expected_p4,
    )


def triangle_adjacency(cx: CellComplex) -> dict[int, list[int]]:
    """Per wire: the triangle faces with an edge on it."""
    out: dict[int, list[int]] = {w: [] for w in range(1, cx.n + 1)}
    sides = cx.face_sides
    for f in cx.bounded_faces():
        if sides[f] == 3:
            for e in cx.boundary_cycle(f):
                out[cx.edge_wire(e)].append(f)
    return out


def report_json(d: WiringDiagram) -> str:
    """Stable-key JSON summary used by the CLI and golden tests."""
    import json

    cx = CellComplex(d)
    census = face_census(cx)
    im = is_in_Im(d, cx)
    try:
        rep = criticality_k(cx)
        thm = verify_counting_theorem(cx)
        k = rep.k
        passed = thm.passed
        crit_wires = sorted(
            cx.edge_wire(e) for e, flag in rep.edge_flags.items() if flag
        )
    except (NoGe5Gon, MultipleGe5Gons):
        k, passed, crit_wires = None, None, []
    payload = {
        "n": d.n,
        "k": k,
        "census": {str(s): census.tally[s] for s in sorted(census.tally)},
        "pass": passed,
        "im": im.member,
        "critical_edges": crit_wires,
    }
    return json.dumps(payload)
