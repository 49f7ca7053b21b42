"""The sweep: the incidence structure of a wiring diagram in one pass.

One left-to-right pass over the swaps yields flat integer arrays for
crossings, edges and faces; ``cells.CellComplex`` builds its views on them.

Conventions:

* wires are 1-based; positions and regions are 0-based top to bottom;
* region r lies between the wires at positions r-1 and r, so region 0 is the
  top unbounded region and region n the bottom one;
* a swap at 1-based track t crosses positions t-1 and t and closes region t;
* edge j of wire w (0 <= j < n) is the j-th interval along w: j=0 is the left
  ray, j=n-1 the right ray; its flat id is (w-1)*n + j;
* face ids: 0..n are the top face, the n-1 initial gap faces, and the bottom
  face (region order); each step then appends one new face.
"""

from collections import namedtuple

SweepResult = namedtuple(
    "SweepResult",
    [
        "n",
        "cross_u",  # per step: upper wire before the swap
        "cross_v",  # per step: lower wire before the swap
        "cross_track",  # per step: 1-based track
        "wire_steps",  # flat (n-1) steps per wire, crossing order along the wire
        "upper_face",  # per edge id: face above
        "lower_face",  # per edge id: face below
        "face_open",  # per face: opening step, -1 if open at -infinity
        "face_close",  # per face: closing step, -1 if open at +infinity
        "face_region",  # per face: its region index
    ],
)


def sweep_arrays(n, swaps):
    """Sweep a validated swap sequence; no validation is repeated here."""
    nsteps = len(swaps)
    cross_u = [0] * nsteps
    cross_v = [0] * nsteps
    cross_track = [0] * nsteps
    wire_steps = [0] * (n * (n - 1))
    upper_face = [-1] * (n * n)
    lower_face = [-1] * (n * n)
    nfaces = n + 1 + nsteps
    face_open = [-1] * nfaces
    face_close = [-1] * nfaces
    face_region = [0] * nfaces

    perm = list(range(1, n + 1))
    region_face = list(range(n + 1))
    for r in range(n + 1):
        face_region[r] = r
    cross_count = [0] * (n + 1)
    next_face = n + 1
    wpl = n - 1  # wire_steps stride

    for s, t in enumerate(swaps):
        u = perm[t - 1]
        v = perm[t]
        cross_u[s] = u
        cross_v[s] = v
        cross_track[s] = t
        cu = cross_count[u]
        cv = cross_count[v]
        eu = (u - 1) * n + cu
        ev = (v - 1) * n + cv
        upper_face[eu] = region_face[t - 1]
        lower_face[eu] = region_face[t]
        upper_face[ev] = region_face[t]
        lower_face[ev] = region_face[t + 1]
        face_close[region_face[t]] = s
        face_open[next_face] = s
        face_region[next_face] = t
        region_face[t] = next_face
        next_face += 1
        wire_steps[(u - 1) * wpl + cu] = s
        wire_steps[(v - 1) * wpl + cv] = s
        cross_count[u] = cu + 1
        cross_count[v] = cv + 1
        perm[t - 1] = v
        perm[t] = u

    for p in range(n):
        w = perm[p]
        e = (w - 1) * n + cross_count[w]
        upper_face[e] = region_face[p]
        lower_face[e] = region_face[p + 1]

    return SweepResult(
        n,
        cross_u,
        cross_v,
        cross_track,
        wire_steps,
        upper_face,
        lower_face,
        face_open,
        face_close,
        face_region,
    )


def census_sides(n, swaps):
    """Sorted side counts of the bounded faces, without building edge arrays.

    A face in a gap gains one boundary edge per change of its bounding wires;
    the only events that matter for the gap between positions t-1 and t are
    swaps at tracks t-1, t, and t+1.
    """
    # per region 1..n-1: (opened_at_crossing, side_count_so_far)
    opened = [False] * n
    sides = [2] * n
    out = []
    for t in swaps:
        # region t closes
        if opened[t]:
            out.append(sides[t])
        opened[t] = True
        sides[t] = 2
        # neighbours gain a vertex on their facing chain
        if t - 1 >= 1:
            sides[t - 1] += 1
        if t + 1 <= n - 1:
            sides[t + 1] += 1
    out.sort()
    return out
