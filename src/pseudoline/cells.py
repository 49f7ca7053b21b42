"""Cell complexes of wiring diagrams: crossings, edges, faces, adjacency.

Built by a single sweep (see ``sweep.py``).  Wires are directed left to
right; for an edge, ``sw.upper_face`` is the face above the wire (to the left
of the direction of travel) and ``sw.lower_face`` the face below.  A face's
boundary is walked along the arrays by the chain rule of ``sweep``; no
per-face edge lists are built.  Every crossing lookup reads one per-pair
table, ``CellComplex.edge_after``: the order of each wire's local sequence.
"""

from __future__ import annotations

from functools import cached_property
from operator import ne

from .sweep import sweep_arrays
from .wiring import WiringDiagram

__all__ = ["CellComplex"]


class CellComplex:
    """Incidence structure of a wiring diagram.

    Immutable after construction.  Faces and edges are referred to by dense
    integer ids; the flat arrays from the sweep are the ground truth.  The
    face table (side counts, bounded faces) and the crossing-rank table
    ``edge_after`` are built from them lazily, on first use.  No per-face
    edge lists are kept: a face's boundary is walked on demand, in O(|f|).
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
    def edge_after(self) -> list[list[int]]:
        """edge_after[w][x]: the id of w's edge just after its crossing with x
        (wires 1-based, w != x).  Edge ids rise along a wire, so w meets x
        before y exactly when edge_after[w][x] < edge_after[w][y]."""
        n, cu, cv = self.n, self.sw.cross_u, self.sw.cross_v
        table = [[0] * (n + 1) for _ in range(n + 1)]
        for w in range(1, n + 1):
            row = table[w]
            for eid, s in enumerate(self.wire_crossing_steps(w), (w - 1) * n + 1):
                row[cu[s] + cv[s] - w] = eid
        return table

    def step_of(self, a: int, b: int) -> int:
        """The step at which wires a and b cross."""
        return self.sw.wire_steps[self.edge_after[a][b] - a]

    # -- faces ---------------------------------------------------------

    def face_bounded(self, f: int) -> bool:
        return self.sw.face_open[f] >= 0 and self.sw.face_close[f] >= 0

    @cached_property
    def face_sides(self) -> list[int]:
        """Side count per face id, unbounded faces included: each edge is a
        side of the face above it and of the face below it."""
        sides = [0] * self.num_faces
        for f in self.sw.upper_face:
            sides[f] += 1
        for f in self.sw.lower_face:
            sides[f] += 1
        return sides

    @cached_property
    def _bounded(self) -> tuple[int, ...]:
        fo, fc = self.sw.face_open, self.sw.face_close
        return tuple(f for f in range(self.num_faces) if fo[f] >= 0 and fc[f] >= 0)

    def face_side_count(self, f: int) -> int:
        return self.face_sides[f]

    def bounded_faces(self) -> tuple[int, ...]:
        return self._bounded

    def boundary_cycle(self, f: int) -> tuple[int, ...]:
        """Boundary edges of a bounded face as one closed cycle: lower chain
        left to right, then upper chain right to left, in O(|f|).

        Each chain is walked by the chain rule of ``sweep``: it starts on u's
        (lower) or v's (upper) edge just after the opening step, and at each
        crossing on its wire steps onto the other wire's edge after it
        (``edge_after``), until the closing step.  Raises ValueError on an
        unbounded face, and on a chain that runs off to infinity or has not
        closed after n edges.
        """
        n, sw = self.n, self.sw
        start, stop = sw.face_open[f], sw.face_close[f]
        if start < 0 or stop < 0:
            raise ValueError(f"face {f} is unbounded")
        ws, cu, cv, after = sw.wire_steps, sw.cross_u, sw.cross_v, self.edge_after
        u, v = cu[start], cv[start]
        lower, upper = [], []
        for chain, e in zip((lower, upper), (after[u][v], after[v][u])):
            for _ in range(n):
                chain.append(e)
                w, j = divmod(e, n)
                if j == n - 1:
                    raise ValueError(f"face {f}: a chain runs off to infinity")
                s = ws[e - w]  # the crossing at e's right end
                if s == stop:
                    break
                e = after[cu[s] + cv[s] - w - 1][w + 1]
            else:
                raise ValueError(f"face {f}: a chain has not closed after {n} edges")
        return tuple(lower + upper[::-1])

    # -- global checks --------------------------------------------------

    def euler_identity(self) -> bool:
        """V - E + F = 1 for the plane, F the faces that the edges bound
        (unbounded cells counted)."""
        faces = set(self.sw.upper_face) | set(self.sw.lower_face)
        return self.num_vertices - self.num_edges + len(faces) == 1

    def twin_consistent(self) -> bool:
        """Each edge has two distinct faces, both face ids of the complex."""
        up, lo = self.sw.upper_face, self.sw.lower_face
        return (all(map(ne, up, lo)) and min(min(up), min(lo)) >= 0
                and max(max(up), max(lo)) < self.num_faces)
