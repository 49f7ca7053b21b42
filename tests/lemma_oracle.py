"""Test-only oracle: the two containment lemmas decided by probe points.

A face of the full arrangement is placed inside a face of a subarrangement by
dropping a probe point into it and counting the kept wires above that point,
read from a per-step table of wire tracks.  This shares no containment logic
with ``pseudoline.suites``, which reads faces off wire sides, and serves as
its reference: each ``*_witnesses`` function returns, per lemma key, the set
of faces that witness the lemma there.

``triangle_region_edges`` yields the edge ranges that the triangle lemma's
check reads, one key at a time; the check reads them inline by prefix counts
and stops at the first range without a triangle.
"""

from itertools import combinations

from face_oracle import face_edges
from pseudoline.analysis import triangle_adjacency
from pseudoline.cells import CellComplex
from pseudoline.sweep import census_sides
from pseudoline.wiring import WiringDiagram, induced_subarrangement


def _track_table(d: WiringDiagram) -> list[list[int]]:
    """track_after[s][w] = track of wire w after the swap at step s."""
    n = d.n
    track = list(range(n + 1))  # track[w], index 0 unused
    out = []
    for t in d.swaps:
        # wires currently at tracks t and t+1 swap
        u = track.index(t)
        v = track.index(t + 1)
        track[u], track[v] = t + 1, t
        out.append(track.copy())
    return out


def _region(cx: CellComplex, f: int) -> int:
    """The region of face f: faces 0..n are the regions at the far left, and
    the face opened at a step lies in the region of that step's track."""
    return f if f <= cx.n else cx.diagram.swaps[cx.sw.face_open[f]]


def _face_in(cx: CellComplex, f: int, kept, region: int, lo: int, hi: int,
             track_after: list[list[int]]) -> bool:
    """Is the bounded face f of the full complex inside the face of the
    subarrangement on ``kept`` whose region is ``region`` and whose sweep
    interval is the open parent-step interval (lo, hi)?

    The probe point of f sits at x = open + 1/3, y = 1/2 - region(f); a wire
    is above it exactly when its track after the opening step is <= region(f).
    """
    sw = cx.sw
    s = sw.face_open[f]
    if not lo <= s < hi:
        return False
    row = track_after[s]
    rf = _region(cx, f)
    return sum(1 for w in kept if row[w] <= rf) == region


def triangle_region_edges(cx: CellComplex):
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


def triangle_region_witnesses(d: WiringDiagram, cx: CellComplex) -> dict:
    """Per (r, s1, s2, ell): the triangles on ``ell`` inside the region of
    the wires crossing r at the consecutive steps s1 < s2, and r."""
    out = {}
    if d.n < 3:
        return out
    adj = triangle_adjacency(cx)
    sw = cx.sw
    track_after = _track_table(d)
    cross_step = cx.crossing_step
    for r in range(1, d.n + 1):
        steps = cx.wire_crossing_steps(r)
        for s1, s2 in zip(steps, steps[1:]):
            # consecutive crossings along r: the edge of the (p, q, r) region
            # on r is uncrossed by construction
            p = sw.cross_v[s1] if sw.cross_u[s1] == r else sw.cross_u[s1]
            q = sw.cross_v[s2] if sw.cross_u[s2] == r else sw.cross_u[s2]
            kept = (p, q, r)
            pair = (p, q) if p < q else (q, p)
            s_pq = cross_step[pair]
            lo, hi = min(s1, s2, s_pq), max(s1, s2, s_pq)
            # region of T = kept wires above the first crossing of the
            # triple, plus one (the crossing occupies the next two tracks)
            t0 = d.swaps[lo]
            row = track_after[lo]
            region = sum(1 for w in kept if w not in (sw.cross_u[lo], sw.cross_v[lo])
                         and row[w] < t0) + 1
            for ell in (p, q):
                out[(r, s1, s2, ell)] = {
                    f for f in adj[ell]
                    if _face_in(cx, f, kept, region, lo, hi, track_after)}
    return out


def uncrossed_edge_witnesses(d: WiringDiagram, cx: CellComplex) -> dict:
    """Per (kept, Q, uncrossed edge, neighbour edge), edges and Q numbered in
    the subarrangement on ``kept``: the (>=5)-gons of the full arrangement
    inside Q with an edge on the neighbour edge."""
    out = {}
    n = d.n
    if n < 6:
        return out
    ge5 = [f for f in cx.bounded_faces() if cx.face_side_count(f) >= 5]
    track_after = _track_table(d)
    for size in range(5, n):
        for kept in combinations(range(1, n + 1), size):
            ind = induced_subarrangement(d, list(kept))
            if max(census_sides(size, ind.diagram.swaps), default=0) < 5:
                continue
            sub_cx = CellComplex(ind.diagram)
            pstep = ind.parent_step
            for Q in sub_cx.bounded_faces():
                if sub_cx.face_side_count(Q) < 5:
                    continue
                cycle = sub_cx.boundary_cycle(Q)
                m = len(cycle)
                q_lo = pstep[sub_cx.sw.face_open[Q]]
                q_hi = pstep[sub_cx.sw.face_close[Q]]
                q_region = _region(sub_cx, Q)
                inside = [f for f in ge5
                          if _face_in(cx, f, kept, q_region, q_lo, q_hi, track_after)]
                for i in range(m):
                    if not _edge_uncrossed(cx, sub_cx, cycle[i], kept, pstep):
                        continue
                    for j in ((i - 1) % m, (i + 1) % m):
                        out[(kept, Q, cycle[i], cycle[j])] = _adjacent_edge_faces(
                            cx, sub_cx, cycle[j], kept, pstep, inside)
    return out


def _edge_uncrossed(cx, sub_cx, eid, kept, pstep) -> bool:
    l2, r2 = sub_cx.edge_span(eid)
    w = kept[sub_cx.edge_wire(eid) - 1]
    steps = cx.wire_crossing_steps(w)
    i1, i2 = steps.index(pstep[l2]), steps.index(pstep[r2])
    return abs(i1 - i2) == 1


def _adjacent_edge_faces(cx, sub_cx, q_eid, kept, pstep, inside) -> set[int]:
    l2, r2 = sub_cx.edge_span(q_eid)
    w = kept[sub_cx.edge_wire(q_eid) - 1]
    steps = cx.wire_crossing_steps(w)
    lo, hi = sorted((steps.index(pstep[l2]), steps.index(pstep[r2])))
    out = set()
    for f in inside:
        for eid in face_edges(cx, f):
            if cx.edge_wire(eid) != w:
                continue
            a, b = cx.edge_span(eid)
            if a is None or b is None:
                continue
            ia, ib = sorted((steps.index(a), steps.index(b)))
            if lo <= ia and ib <= hi:
                out.add(f)
    return out
