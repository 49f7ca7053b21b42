"""Acceptance suite: the ten headline guarantees of the library.

Each test prints exactly one pass/fail line (routed past pytest's capture so
the lines are visible in a normal ``pytest -v`` run).  The exhaustive n <= 6
scan is shared by criteria 2-6 through a session fixture; it runs the checks
once per arrangement, and three tests guard that every word is covered.
"""

import random
import time
from itertools import combinations

import networkx as nx
import pytest

from pseudoline.analysis import triangle_adjacency, verify_counting_theorem
from pseudoline.cells import CellComplex
from pseudoline.enumeration import enumerate_simple, raw_words
from pseudoline.isomorphism import isomorphic
from pseudoline.lines import lines_to_diagram
from pseudoline.necklace import (
    build_arrangement,
    canonical_necklace,
    enumerate_selfdual,
    q_formula,
)
from pseudoline.stretch import realize_im, select_insertion_frame
from pseudoline.suites import ALL_CHECKS, run_checks
from pseudoline.sweep import census_sides
from pseudoline.wiring import WiringDiagram, induced_subarrangement

from wl_oracle import incidence_graph


def report(num, ok, detail):
    line = f"criterion {num}: {'pass' if ok else 'FAIL'} — {detail}"
    print(line, flush=True)
    assert ok, line


def normal_form(word):
    """Lex-smallest word of the commutation class of a valid word.

    Insertion: each letter moves left past the larger letters it commutes
    with.  In a normal prefix no larger commuting letter sits behind a smaller
    one it could pass, so the result is normal, hence the class's normal form.
    """
    out = []
    for t in word:
        p = len(out)
        while p and abs(out[p - 1] - t) >= 2 and out[p - 1] > t:
            p -= 1
        out.insert(p, t)
    return tuple(out)


def random_word(n, rng):
    """A valid swap word, built by crossing a random adjacent uncrossed pair."""
    perm = list(range(1, n + 1))
    word = []
    while len(word) < n * (n - 1) // 2:
        t = rng.choice([t for t in range(1, n) if perm[t - 1] < perm[t]])
        perm[t - 1], perm[t] = perm[t], perm[t - 1]
        word.append(t)
    return tuple(word)


@pytest.fixture(scope="session")
def scan():
    """One exhaustive pass over all arrangements, 3 <= n <= 6, all checks.

    The checks run once per commutation class, on its lex-normal word; the
    word counts come from word-level enumeration.  Word-invariance of the
    results is tested below, not assumed.
    """
    failures = {name: None for name in ALL_CHECKS}
    counts = {}
    results = {}  # normal word -> {check name: bool}
    one_triangle = None  # first n >= 5 instance of the single-triangle wire
    for n in range(3, 7):
        counts[n] = sum(1 for _ in raw_words(n))
        for word in raw_words(n, classes=True):
            d = WiringDiagram(n, word)
            results[word] = run_checks(d)
            for name, ok in results[word].items():
                if failures[name] is None and not ok:
                    failures[name] = (n, word)
            if one_triangle is None and n >= 5:
                cx = CellComplex(d)
                sizes = [len(v) for v in triangle_adjacency(cx).values()]
                if min(sizes) == 1 and max(sizes) > 1:
                    one_triangle = (n, word)
    return {
        "failures": failures,
        "counts": counts,
        "results": results,
        "one_triangle": one_triangle,
        "total": sum(counts.values()),
        "classes": len(results),
    }


def test_scan_results_hold_on_every_word_n_le_5(scan):
    for n in range(3, 6):
        for word in raw_words(n):
            got = run_checks(WiringDiagram(n, word))
            assert got == scan["results"][normal_form(word)], (n, word)


def test_scan_results_hold_on_sampled_n6_words(scan):
    rng = random.Random(20100823)
    for _ in range(1000):
        word = random_word(6, rng)
        got = run_checks(WiringDiagram(6, word))
        assert got == scan["results"][normal_form(word)], word


def test_every_n6_word_maps_to_a_scanned_class(scan):
    census = {}
    for word in raw_words(6):
        rep = normal_form(word)
        assert rep in scan["results"], word
        if rep not in census:
            census[rep] = census_sides(6, rep)
        assert census_sides(6, word) == census[rep], word


@pytest.fixture(scope="session")
def necklace_diagrams():
    """All necklace-built diagrams with a (>=5)-gon, 2m <= 12 (m >= 3)."""
    out = []
    for m in range(3, 7):
        for beads in enumerate_selfdual(m):
            arr, d = build_arrangement(m, beads)
            out.append((m, beads, arr, d))
    return out


def test_criterion_01_bounded_cell_formula():
    t0 = time.perf_counter()
    checked = 0
    bad = None
    for n in range(3, 7):
        target = 1 + n * (n - 3) // 2
        for word in raw_words(n):
            checked += 1
            if len(census_sides(n, word)) != target:
                bad = (n, word)
                break
    elapsed = time.perf_counter() - t0
    report(
        1,
        bad is None and elapsed < 60,
        f"bounded cells = 1+n(n-3)/2 on {checked} diagrams, 3<=n<=6 "
        f"({elapsed:.1f}s)",
    )


def test_criterion_02_counting_theorem(scan, necklace_diagrams):
    bad = scan["failures"]["counting"]
    neck_bad = None
    for m, beads, _, d in necklace_diagrams:
        if not verify_counting_theorem(CellComplex(d)).passed:
            neck_bad = (m, beads)
            break
    report(
        2,
        bad is None and neck_bad is None,
        f"p3 = n-k and p4 = k+n(n-5)/2 on all one-(>=5)-gon diagrams "
        f"(n<=6 exhaustive, {scan['total']} words in {scan['classes']} "
        f"arrangements) and all {len(necklace_diagrams)} necklace builds 2m<=12",
    )


def test_criterion_03_triangle_per_wire(scan):
    bad = scan["failures"]["triangle-per-wire"]
    inst = scan["one_triangle"]
    detail = (
        f"every wire bounds a triangle (n<=6 exhaustive); single-triangle "
        f"wire instance: n={inst[0]} swaps={' '.join(map(str, inst[1]))}"
        if inst
        else "no single-triangle-wire instance found"
    )
    report(3, bad is None and inst is not None, detail)


def test_criterion_04_criticality_bound(scan):
    bad = scan["failures"]["criticality-bound"]
    report(
        4,
        bad is None,
        f"no bounded (>=4)-gon with >2 critical edges (n<=6 exhaustive, "
        f"{scan['total']} words in {scan['classes']} arrangements)",
    )


def test_criterion_05_im_structure(scan, necklace_diagrams):
    bad = scan["failures"]["im-structure"]
    neck_bad = None
    check = ALL_CHECKS["im-structure"]
    for m, beads, _, d in necklace_diagrams:
        if not check(CellComplex(d)):
            neck_bad = (m, beads)
            break
    report(
        5,
        bad is None and neck_bad is None,
        "non-critical gon edges bound triangles and every triangle touches "
        "the gon, on all Im diagrams (n<=6 exhaustive + necklaces 2m<=12)",
    )


def test_criterion_06_containment_lemmas(scan):
    bad1 = scan["failures"]["triangle-region-lemma"]
    bad2 = scan["failures"]["uncrossed-edge-lemma"]
    report(
        6,
        bad1 is None and bad2 is None,
        f"triangular-region and uncrossed-edge containment suites pass "
        f"(n<=6 exhaustive, {scan['total']} words in {scan['classes']} "
        f"arrangements)",
    )


def test_criterion_07_necklace_counts():
    def brute(m):
        seen = set()
        for bits in range(2 ** m):
            half = tuple((bits >> i) & 1 for i in range(m))
            seen.add(canonical_necklace(half + tuple(1 - b for b in half)))
        return len(seen)

    bad = None
    for m in range(2, 13):
        q = q_formula(m)
        if not q == brute(m) == len(enumerate_selfdual(m)):
            bad = m
            break
    small = [q_formula(m) for m in range(2, 7)]
    report(
        7,
        bad is None and small == [1, 2, 2, 4, 5],
        f"q_formula = brute-force dihedral orbit count for 2<=m<=12; "
        f"m=2..6 gives {small}",
    )


def test_criterion_08_injectivity(necklace_diagrams):
    bad = None
    for m in range(3, 7):
        ds = [d for mm, _, _, d in necklace_diagrams if mm == m]
        for d1, d2 in combinations(ds, 2):
            if isomorphic(d1, d2):
                bad = m
                break
    report(
        8,
        bad is None,
        "distinct canonical necklaces at fixed m<=6 give pairwise "
        "non-isomorphic arrangements",
    )


def test_criterion_09_realizer_roundtrip(necklace_diagrams):
    t0 = time.perf_counter()
    targets = []
    for m, beads, _, d in necklace_diagrams:
        targets.append(d)
        # the Im diagrams of the wires left at each step of the paper's deletion order
        kept = list(range(1, d.n + 1))
        for b in select_insertion_frame(CellComplex(d)):
            kept.remove(b)
            targets.append(induced_subarrangement(d, kept).diagram)
    bad = None
    for d in targets:
        # labelled: line i sweeps into wire i + 1, in d's local sequences
        res = lines_to_diagram(realize_im(d))
        if (res.wire_of_line != {i: i + 1 for i in range(d.n)}
                or res.diagram.local_sequences() != d.local_sequences()):
            bad = d
            break
    elapsed = time.perf_counter() - t0
    report(
        9,
        bad is None and elapsed < 300,
        f"exact straight-line realization round-trips, labelled, on {len(targets)} Im "
        f"diagrams (necklaces 2m<=12 + their deletion-order remainders, {elapsed:.1f}s)",
    )


def _vf2_class_count_n5():
    """Independent dedup: pairwise VF2 on dimension-coloured incidence graphs.

    It runs on the 62 commutation classes; that every word gets its class's
    canonical form is tested in test_isomorphism.py.
    """

    def graph_of(d):
        adj, colors = incidence_graph(CellComplex(d))
        g = nx.Graph()
        for i, c in enumerate(colors):
            g.add_node(i, dim=c)
        for i, nbrs in enumerate(adj):
            for j in nbrs:
                g.add_edge(i, j)
        return g

    nm = nx.algorithms.isomorphism.categorical_node_match("dim", -1)
    reps = []  # (census signature, graph)
    for word in raw_words(5, classes=True):
        d = WiringDiagram(5, word)
        sig = tuple(census_sides(5, word))
        g = graph_of(d)
        for sig2, g2 in reps:
            if sig == sig2 and nx.is_isomorphic(g, g2, node_match=nm):
                break
        else:
            reps.append((sig, g))
    return len(reps)


def test_criterion_10_dedup_sanity():
    c3, c4, c5 = (sum(1 for _ in enumerate_simple(n, dedup=True)) for n in (3, 4, 5))
    c5_vf2 = _vf2_class_count_n5()
    report(
        10,
        c3 == 1 and c4 == 1 and c5 == c5_vf2,
        f"dedup classes: n=3 -> {c3}, n=4 -> {c4}; n=5 -> {c5} "
        f"(certificate) = {c5_vf2} (VF2)",
    )
