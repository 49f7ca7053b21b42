"""Test-only oracle: the two containment lemmas decided by probe points.

A face of the full arrangement is placed inside a face of a subarrangement by
dropping a probe point into it and counting the kept wires above that point,
read from a per-step table of wire tracks.  This shares no containment logic
with ``pseudoline.suites``, which reads faces off wire sides, and serves as
its reference: each function returns, per lemma key, the set of faces that
witness the lemma there.
"""

from itertools import combinations

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
        for eid in cx.face_edges(f):
            if cx.edge_wire(eid) != w:
                continue
            a, b = cx.edge_span(eid)
            if a is None or b is None:
                continue
            ia, ib = sorted((steps.index(a), steps.index(b)))
            if lo <= ia and ib <= hi:
                out.add(f)
    return out
