"""Cell complexes of wiring diagrams: crossings, edges, faces, adjacency.

Built by a single sweep (see ``sweep.py``).  Wires are directed left to
right; for an edge, ``left_face`` is the face above the wire (to the left of
the direction of travel) and ``right_face`` the face below.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .sweep import sweep_arrays
from .wiring import WiringDiagram

__all__ = ["Crossing", "Edge", "CellComplex", "build_cell_complex"]


@dataclass(frozen=True)
class Crossing:
    wire_a: int
    wire_b: int
    step: int  # 0-based sweep step; doubles as the x-coordinate
    track: int  # 1-based track of the swap


@dataclass(frozen=True)
class Edge:
    id: int
    wire: int
    index: int  # position along the wire; 0 is the left ray, n-1 the right ray
    left_step: int | None  # crossing step at the left endpoint, None for a ray
    right_step: int | None
    left_face: int  # face above the wire
    right_face: int  # face below the wire


class CellComplex:
    """Incidence structure of a wiring diagram.

    Immutable after construction.  Faces and edges are referred to by dense
    integer ids; the flat arrays from the sweep are the ground truth
    and the dataclass views are built lazily.
    """

    def __init__(self, diagram: WiringDiagram):
        self.diagram = diagram
        self.sw = sweep_arrays(diagram.n, diagram.swaps)
        self.n = diagram.n
        self.num_vertices = len(diagram.swaps)
        self.num_edges = diagram.n * diagram.n
        self.num_faces = diagram.n + 1 + self.num_vertices

    # -- edges ---------------------------------------------------------

    def edge_wire(self, eid: int) -> int:
        return eid // self.n + 1

    def edge_span(self, eid: int) -> tuple[int | None, int | None]:
        """Crossing steps at the edge endpoints (None = at infinity)."""
        n = self.n
        w, j = divmod(eid, n)
        ws = self.sw.wire_steps
        left = ws[w * (n - 1) + j - 1] if j > 0 else None
        right = ws[w * (n - 1) + j] if j < n - 1 else None
        return left, right

    def edge(self, eid: int) -> Edge:
        left, right = self.edge_span(eid)
        return Edge(
            eid,
            self.edge_wire(eid),
            eid % self.n,
            left,
            right,
            self.sw.upper_face[eid],
            self.sw.lower_face[eid],
        )

    def wire_edge_ids(self, wire: int) -> range:
        return range((wire - 1) * self.n, wire * self.n)

    def wire_crossing_steps(self, wire: int) -> list[int]:
        """Steps of the crossings along ``wire``, in sweep (x) order."""
        n = self.n
        return self.sw.wire_steps[(wire - 1) * (n - 1) : wire * (n - 1)]

    def twin(self, eid: int, face: int) -> int:
        """The face on the other side of ``eid`` from ``face``."""
        up, lo = self.sw.upper_face[eid], self.sw.lower_face[eid]
        if face == up:
            return lo
        if face == lo:
            return up
        raise ValueError(f"face {face} not adjacent to edge {eid}")

    # -- crossings -----------------------------------------------------

    @cached_property
    def crossings(self) -> list[Crossing]:
        sw = self.sw
        return [
            Crossing(sw.cross_u[s], sw.cross_v[s], s, sw.cross_track[s])
            for s in range(self.num_vertices)
        ]

    @cached_property
    def crossing_step(self) -> dict[tuple[int, int], int]:
        """Unordered wire pair (small, large) -> step."""
        out = {}
        sw = self.sw
        for s in range(self.num_vertices):
            a, b = sw.cross_u[s], sw.cross_v[s]
            out[(a, b) if a < b else (b, a)] = s
        return out

    def vertex_edges(self, step: int) -> list[int]:
        """The four edges meeting at a crossing (two on each wire)."""
        out = []
        n = self.n
        for w in (self.sw.cross_u[step], self.sw.cross_v[step]):
            j = self.wire_crossing_steps(w).index(step)
            base = (w - 1) * n
            out.extend((base + j, base + j + 1))
        return out

    # -- faces ---------------------------------------------------------

    def face_bounded(self, f: int) -> bool:
        return self.sw.face_open[f] >= 0 and self.sw.face_close[f] >= 0

    @cached_property
    def _face_edges(self) -> list[list[int]]:
        by_face: list[list[int]] = [[] for _ in range(self.num_faces)]
        for e in range(self.num_edges):
            by_face[self.sw.upper_face[e]].append(e)
            by_face[self.sw.lower_face[e]].append(e)
        return by_face

    def face_edges(self, f: int) -> list[int]:
        return self._face_edges[f]

    def face_side_count(self, f: int) -> int:
        return len(self._face_edges[f])

    def face_wires(self, f: int) -> set[int]:
        return {self.edge_wire(e) for e in self._face_edges[f]}

    def bounded_faces(self) -> list[int]:
        return [f for f in range(self.num_faces) if self.face_bounded(f)]

    def boundary_cycle(self, f: int) -> tuple[int, ...]:
        """Boundary edges of a bounded face as one closed cycle.

        Lower chain left to right, then upper chain right to left; raises if
        the chains do not close up (they always do on valid diagrams).
        """
        if not self.face_bounded(f):
            raise ValueError(f"face {f} is unbounded")
        up, lo = self.sw.upper_face, self.sw.lower_face
        lower = sorted(
            (e for e in self._face_edges[f] if up[e] == f),
            key=lambda e: self.edge_span(e)[0],
        )
        upper = sorted(
            (e for e in self._face_edges[f] if lo[e] == f),
            key=lambda e: self.edge_span(e)[0],
            reverse=True,
        )
        fo, fc = self.sw.face_open[f], self.sw.face_close[f]
        for chain in (lower, upper[::-1]):
            xs = [self.edge_span(e) for e in chain]
            assert xs[0][0] == fo and xs[-1][1] == fc, "chain endpoints broken"
            for (_, r), (l2, _) in zip(xs, xs[1:]):
                assert r == l2, "chain not contiguous"
        return tuple(lower + upper)

    # -- global checks --------------------------------------------------

    def euler_identity(self) -> bool:
        """V - E + F = 1 for the plane with unbounded cells counted."""
        return self.num_vertices - self.num_edges + self.num_faces == 1

    def twin_consistent(self) -> bool:
        for e in range(self.num_edges):
            for f in (self.sw.upper_face[e], self.sw.lower_face[e]):
                if e not in self._face_edges[f]:
                    return False
            if self.sw.upper_face[e] == self.sw.lower_face[e]:
                return False
        return True


def build_cell_complex(d: WiringDiagram) -> CellComplex:
    return CellComplex(d)
