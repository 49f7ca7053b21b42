"""Test-only oracle: criticality from the subarrangement of the gon's wires.

Builds the subarrangement induced by the wires of the one (>=5)-gon P, finds
each edge of P there by its end crossings, and reads whether the face across
it, away from P, is bounded.  ``pseudoline.analysis.criticality_k`` reads the
same flags off P's own crossings and builds no subarrangement.
"""

from face_oracle import face_edges
from pseudoline.analysis import find_unique_ge5
from pseudoline.cells import CellComplex
from pseudoline.wiring import induced_subarrangement


def edge_flags(cx: CellComplex) -> dict[int, bool]:
    """Per boundary edge of P: is the induced face across it, away from P,
    unbounded."""
    p = find_unique_ge5(cx)
    wires = sorted({cx.edge_wire(e) for e in face_edges(cx, p)})
    ind = induced_subarrangement(cx.diagram, wires)
    sub = CellComplex(ind.diagram)
    flags = {}
    for e in cx.boundary_cycle(p):
        w = wires.index(cx.edge_wire(e)) + 1
        l, r = cx.edge_span(e)
        steps = [ind.parent_step[s] for s in sub.wire_crossing_steps(w)]
        j = steps.index(l)
        assert steps[j + 1] == r, "edge endpoints not consecutive in induced"
        eid = (w - 1) * sub.n + j + 1
        other = sub.sw.lower_face[eid] if cx.sw.upper_face[e] == p else sub.sw.upper_face[eid]
        flags[e] = not sub.face_bounded(other)
    return flags
