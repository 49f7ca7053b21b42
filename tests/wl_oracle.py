"""Test-only oracle: canonical certificates by generic graph canonization.

The incidence graph of a diagram's cell complex (nodes = cells coloured by
dimension, arcs = incidence between consecutive dimensions) is canonically
labeled by 1-dimensional Weisfeiler-Leman refinement with backtracking.  It
shares no code with the marking-based canonical form in
``pseudoline.isomorphism`` and serves as its reference.
"""

from pseudoline.cells import CellComplex


def incidence_graph(cx: CellComplex):
    """Adjacency lists + dimension colours for the cell incidence graph.

    Node ids: crossings 0..V-1, then edge cells V..V+E-1, then faces.
    """
    v, e = cx.num_vertices, cx.num_edges
    total = v + e + cx.num_faces
    adj: list[list[int]] = [[] for _ in range(total)]
    colors = [0] * v + [1] * e + [2] * cx.num_faces
    for eid in range(e):
        ge = v + eid
        for s in cx.edge_span(eid):
            if s is not None:
                adj[ge].append(s)
                adj[s].append(ge)
        for f in (cx.sw.upper_face[eid], cx.sw.lower_face[eid]):
            gf = v + e + f
            adj[ge].append(gf)
            adj[gf].append(ge)
    return adj, colors


def _refine(adj, colors):
    """1-dimensional Weisfeiler-Leman colour refinement to a fixed point."""
    colors = list(colors)
    while True:
        keys = [
            (colors[i], tuple(sorted(colors[j] for j in adj[i])))
            for i in range(len(adj))
        ]
        rank = {k: r for r, k in enumerate(sorted(set(keys)))}
        new = [rank[k] for k in keys]
        if new == colors:
            return colors
        colors = new


def _certificate(adj, colors, lab):
    inv = [0] * len(lab)
    for node, pos in enumerate(lab):
        inv[pos] = node
    col = tuple(colors[inv[p]] for p in range(len(lab)))
    arcs = set()
    for i in range(len(adj)):
        for j in adj[i]:
            a, b = lab[i], lab[j]
            arcs.add((a, b) if a < b else (b, a))
    return (col, tuple(sorted(arcs)))


def _canon_search(adj, colors):
    """Minimal certificate over the individualization search tree."""
    colors = _refine(adj, colors)
    classes: dict[int, list[int]] = {}
    for node, c in enumerate(colors):
        classes.setdefault(c, []).append(node)
    target = None
    for c in sorted(classes):
        if len(classes[c]) > 1:
            target = classes[c]
            break
    if target is None:
        lab = [0] * len(adj)
        order = sorted(range(len(adj)), key=lambda i: colors[i])
        for pos, node in enumerate(order):
            lab[node] = pos
        return _certificate(adj, colors, lab)
    best = None
    for v in target:
        branched = list(colors)
        branched[v] = -1  # individualize: strictly smaller than any colour
        cert = _canon_search(adj, branched)
        if best is None or cert < best:
            best = cert
    return best


def wl_certificate(d) -> tuple:
    """Canonical certificate of the incidence graph of ``d``'s cell complex."""
    return (d.n, _canon_search(*incidence_graph(CellComplex(d))))
