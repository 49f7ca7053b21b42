"""Per-diagram invariant suites shared by the CLI verifier and the tests.

Each check takes the cell complex of a diagram, which carries the diagram,
and returns True when the property holds.  The properties are the structural
facts the library is built around: the bounded-cell count, the triangle and
quadrilateral counts, criticality bounds, and the two containment lemmas
about triangular regions and uncrossed (>=5)-gon edges.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, combinations

from .analysis import (
    critical_edges,
    face_census,
    is_in_Im,
    triangle_adjacency,
    verify_counting_theorem,
)
from .cells import CellComplex
from .errors import MultipleGe5Gons, NoGe5Gon
from .sweep import census_sides
from .wiring import WiringDiagram, induced_subarrangement

__all__ = [
    "check_cell_formula",
    "check_counting",
    "check_prop_triangle_per_wire",
    "check_criticality_bound",
    "check_im_structure",
    "check_no_shared_triangle_edge",
    "check_triangle_region_lemma",
    "check_uncrossed_edge_lemma",
    "ALL_CHECKS",
    "run_checks",
]

def check_cell_formula(cx: CellComplex) -> bool:
    n = cx.n
    return (
        len(cx.bounded_faces()) == 1 + n * (n - 3) // 2
        and cx.euler_identity()
        and cx.twin_consistent()
    )


def check_counting(cx: CellComplex) -> bool:
    """Triangle/quadrilateral counts: n - 2 and (n - 2)(n - 3)/2 with no
    (>=5)-gon (Leanos et al.; n >= 2), the paper's n - k and k + n(n - 5)/2
    with exactly one.  Two or more (>=5)-gons go unchecked."""
    try:
        return verify_counting_theorem(cx).passed
    except MultipleGe5Gons:
        return True
    except NoGe5Gon:
        n, census = cx.n, face_census(cx)
        return n < 2 or (census[3], census[4]) == (n - 2, (n - 2) * (n - 3) // 2)


def check_prop_triangle_per_wire(cx: CellComplex) -> bool:
    """Every wire bounds at least one triangle (n >= 3)."""
    return cx.n < 3 or all(triangle_adjacency(cx).values())


def check_criticality_bound(cx: CellComplex) -> bool:
    """No bounded (>=4)-gon has more than 2 critical edges."""
    sides = cx.face_sides
    return all(sum(critical_edges(cx, f).values()) <= 2
               for f in cx.bounded_faces() if sides[f] >= 4)


def check_im_structure(cx: CellComplex) -> bool:
    """On Im diagrams: non-critical P-edges bound triangles, and every
    triangle shares an edge with P."""
    im = is_in_Im(cx.diagram, cx)
    if not im.member:
        return True
    P, sides = im.face, cx.face_sides
    across = [(crit, cx.twin(eid, P)) for eid, crit in critical_edges(cx, P).items()]
    if any(not crit and sides[f] != 3 for crit, f in across):
        return False
    beside_P = {f for _, f in across}
    return all(f in beside_P for f in cx.bounded_faces() if sides[f] == 3)


def check_no_shared_triangle_edge(cx: CellComplex) -> bool:
    """No edge is a side of two bounded triangles."""
    sides, bounded = cx.face_sides, cx.face_bounded
    return not any(a != b and sides[a] == sides[b] == 3 and bounded(a) and bounded(b)
                   for a, b in zip(cx.sw.upper_face, cx.sw.lower_face))


def _faces_along(cx: CellComplex, w: int, s1: int, s2: int, above: bool) -> list[int]:
    """The faces above (or below) wire ``w`` between its crossings at steps
    s1 and s2: one per edge of ``w`` in that stretch."""
    steps = cx.wire_crossing_steps(w)  # ascending
    i, j = sorted((bisect_left(steps, s1), bisect_left(steps, s2)))
    base = (w - 1) * cx.n
    return (cx.sw.upper_face if above else cx.sw.lower_face)[base + i + 1 : base + j + 1]


def _triangle_region_edges(cx: CellComplex):
    """Per (r, s1, s2, ell): the edges of ``ell`` inside the triangular
    region T of r and the wires crossing it at the consecutive steps
    s1 < s2, as the edge-id range [lo, hi), and whether T lies above ``ell``.

    With rank[w][x] the place of w's crossing with x along w, the range is
    the stretch of ``ell`` between its crossings with r and with the other
    wire o.  T lies on the side of ``ell`` where o meets r: o is above
    ``ell`` there when it starts above (o < ell) and meets r first, or
    starts below and meets ``ell`` first.
    """
    n, sw = cx.n, cx.sw
    seq = [[]] + [[sw.cross_u[s] + sw.cross_v[s] - w for s in cx.wire_crossing_steps(w)]
                  for w in range(1, n + 1)]
    rank = [[0] * (n + 1) for _ in seq]
    for w in range(1, n + 1):
        for i, x in enumerate(seq[w]):
            rank[w][x] = i
    for r in range(1, n + 1):
        steps = cx.wire_crossing_steps(r)
        for k in range(n - 2):
            p, q = seq[r][k], seq[r][k + 1]
            for ell, o in ((p, q), (q, p)):
                i, j = sorted((rank[ell][r], rank[ell][o]))
                base = (ell - 1) * n + 1
                yield ((r, steps[k], steps[k + 1], ell),
                       (base + i, base + j, (o < ell) != (rank[o][ell] < rank[o][r])))


def check_triangle_region_lemma(cx: CellComplex) -> bool:
    """Uncrossed edge of a triangular region T on wire r: each of the other
    two wires of T bounds a triangle face contained in T.  Per-side prefix
    counts of triangles over the edge ids count each range in O(1)."""
    sides = cx.face_sides
    below_above = [list(accumulate((sides[f] == 3 for f in faces), initial=0))
                   for faces in (cx.sw.lower_face, cx.sw.upper_face)]
    return all(below_above[up][hi] > below_above[up][lo]
               for _, (lo, hi, up) in _triangle_region_edges(cx))


def _uncrossed_edge_faces(cx: CellComplex):
    """Per (kept, Q, uncrossed edge, neighbour edge), with Q a (>=5)-gon of
    the subarrangement on ``kept`` and the edges two consecutive edges of Q:
    the faces of the full arrangement inside Q along the neighbour edge.

    An edge of Q is uncrossed when its stretch of the parent wire holds one
    full edge, whose face on Q's side is then the only face listed for it.
    """
    n = cx.n
    for size in range(5, n):
        for kept in combinations(range(1, n + 1), size):
            ind = induced_subarrangement(cx.diagram, kept)
            if max(census_sides(size, ind.diagram.swaps), default=0) < 5:
                continue
            sub = CellComplex(ind.diagram)
            for Q in sub.bounded_faces():
                if sub.face_sides[Q] < 5:
                    continue
                cycle = sub.boundary_cycle(Q)
                along = [_faces_along(cx, kept[sub.edge_wire(e) - 1],
                                      *(ind.parent_step[s] for s in sub.edge_span(e)),
                                      sub.sw.upper_face[e] == Q)
                         for e in cycle]
                m = len(cycle)
                for i in range(m):
                    if len(along[i]) == 1:
                        for j in ((i - 1) % m, (i + 1) % m):
                            yield (kept, Q, cycle[i], cycle[j]), along[j]


def check_uncrossed_edge_lemma(cx: CellComplex) -> bool:
    """Uncrossed edge w of a (>=5)-gon Q of a proper subarrangement: each
    Q-edge adjacent to w carries, as a subarc, an edge of a (>=5)-gon of the
    full arrangement contained in Q.  (With Q a face of the full arrangement
    itself the statement holds with that face as its own witness, so only
    proper subsets are examined.)"""
    sides = cx.face_sides
    return all(any(sides[f] >= 5 for f in faces) for _, faces in _uncrossed_edge_faces(cx))


ALL_CHECKS = {
    "cell-formula": check_cell_formula,
    "counting": check_counting,
    "triangle-per-wire": check_prop_triangle_per_wire,
    "criticality-bound": check_criticality_bound,
    "im-structure": check_im_structure,
    "no-shared-triangle-edge": check_no_shared_triangle_edge,
    "triangle-region-lemma": check_triangle_region_lemma,
    "uncrossed-edge-lemma": check_uncrossed_edge_lemma,
}


def run_checks(d: WiringDiagram) -> dict[str, bool]:
    cx = CellComplex(d)
    return {name: check(cx) for name, check in ALL_CHECKS.items()}
