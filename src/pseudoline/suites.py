"""Per-diagram invariant suites shared by the CLI verifier and the tests.

Each check takes the cell complex of a diagram, which carries the diagram,
and returns True when the property holds.  The properties are the structural
facts the library is built around: the bounded-cell count, the triangle and
quadrilateral counts, criticality bounds, and the two containment lemmas
about triangular regions and uncrossed (>=5)-gon edges.
"""

from __future__ import annotations

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
from .wiring import WiringDiagram

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
    the subarrangement on ``kept`` and the edges two consecutive edges of Q,
    numbered as in that subarrangement's complex: the faces of the full
    arrangement inside Q along the neighbour edge.

    One pass per subset over the crossings of kept wires keeps each open
    face's lower and upper chains by the chain rule of ``sweep``.  A chain
    entry [lo, hi, e] is the sub-edge e, which holds the parent edges
    lo..hi-1 of one wire.  It is uncrossed when it holds one, whose face on
    Q's side is then the only face listed for it.
    """
    n, sw = cx.n, cx.sw
    if n < 6:
        return
    after = [[0, 0] for _ in sw.cross_u]  # per step: the ids of u's and v's edges after it
    for w in range(1, n + 1):
        for eid, s in enumerate(cx.wire_crossing_steps(w), start=(w - 1) * n + 1):
            after[s][sw.cross_v[s] == w] = eid
    table = list(zip(sw.cross_u, sw.cross_v, after))
    for m in range(5, n):
        for kept in combinations(range(1, n + 1), m):
            track = [0] * (n + 1)  # per wire: its sub-track, 0 if dropped
            edge = [None] * (n + 1)  # per kept wire: the entry of its current sub-edge
            for i, w in enumerate(kept):
                track[w], edge[w] = i + 1, [0, 0, i * m]
            face = [-1] * (m + 1)  # per region: its open face's id, -1 if open at -infinity
            lower, upper = [[] for _ in range(m + 1)], [[] for _ in range(m + 1)]
            rows = [row for row in table if track[row[0]] and track[row[1]]]
            for f, (u, v, (eu, ev)) in enumerate(rows, start=m + 1):
                a = track[u]
                edge[u][1], edge[v][1] = eu, ev  # their sub-edges end here
                if face[a] >= 0 and len(lower[a]) + len(upper[a]) >= 5:
                    cycle = lower[a] + upper[a][::-1]
                    q = len(cycle)
                    for i, (lo, hi, e) in enumerate(cycle):
                        if hi - lo == 1:
                            for j in ((i - 1) % q, (i + 1) % q):
                                lo2, hi2, e2 = cycle[j]
                                faces = sw.upper_face if j < len(lower[a]) else sw.lower_face
                                yield (kept, face[a], e, e2), faces[lo2:hi2]
                edge[u], edge[v] = [eu, 0, edge[u][2] + 1], [ev, 0, edge[v][2] + 1]
                face[a], lower[a], upper[a] = f, [edge[u]], [edge[v]]
                lower[a - 1].append(edge[v])
                upper[a + 1].append(edge[u])
                track[u], track[v] = a + 1, a


def check_uncrossed_edge_lemma(cx: CellComplex) -> bool:
    """Uncrossed edge w of a (>=5)-gon Q of a proper subarrangement: each
    Q-edge adjacent to w carries, as a subarc, an edge of a (>=5)-gon of the
    full arrangement contained in Q.  (With Q a face of the full arrangement
    itself the statement holds with that face as its own witness, so only
    proper subsets are examined.)  Each subset is one pass by the chain rule
    of ``sweep``: no subarrangement is built."""
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
