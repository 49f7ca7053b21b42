"""Test-only oracle: a face's edges found by scanning the two edge arrays.

``pseudoline.cells.CellComplex`` keeps no per-face edge lists and walks a
bounded face's boundary by the chain rule of ``sweep``.  These scans read
every edge instead, unbounded faces included, and serve as its reference.
"""

from pseudoline.cells import CellComplex


def face_edges(cx: CellComplex, f: int) -> list[int]:
    """The edges with face f above or below them, by id."""
    return [e for e, (up, lo) in enumerate(zip(cx.sw.upper_face, cx.sw.lower_face))
            if f in (up, lo)]


def scan_cycle(cx: CellComplex, f: int) -> tuple[int, ...]:
    """The boundary cycle of a bounded face: the edges with f above them by
    left step, then those with f below them by left step descending."""
    def left(e):
        return cx.edge_span(e)[0]
    up, lo = cx.sw.upper_face, cx.sw.lower_face
    lower = sorted((e for e in range(cx.num_edges) if up[e] == f), key=left)
    upper = sorted((e for e in range(cx.num_edges) if lo[e] == f), key=left, reverse=True)
    return tuple(lower + upper)
