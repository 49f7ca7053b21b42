import hashlib
import itertools
import random
import sys
from functools import cache, partial

import pytest

from pseudoline import stretch
from pseudoline.analysis import is_in_Im
from pseudoline.cells import CellComplex
from pseudoline.cli import main
from pseudoline.enumeration import raw_words
from pseudoline.errors import NotInIm, WrongLabels
from pseudoline.lines import lines_to_diagram
from pseudoline.necklace import build_arrangement, enumerate_selfdual
from pseudoline.stretch import (BASE_N, model_sequences, realize_im, select_insertion_frame,
                                tangent_model)
from pseudoline.sweep import census_sides
from pseudoline.wiring import (WiringDiagram, format_diagram, induced_subarrangement,
                               validate_wiring)

PENTAGON_5 = validate_wiring(5, [1, 2, 1, 3, 4, 3, 2, 1, 3, 2])
NECKLACE_8 = build_arrangement(4, enumerate_selfdual(4)[1])[1]
# one (>=5)-gon, which misses a wire; and two (>=5)-gons
NON_IM_SIX = validate_wiring(6, [1, 2, 1, 3, 2, 1, 4, 3, 5, 4, 3, 2, 1, 3, 2])
TWO_GONS_SIX = validate_wiring(6, [1, 2, 1, 3, 2, 4, 5, 4, 3, 2, 1, 2, 4, 3, 2])


def necklace(n):
    """The diagram of a fixed self-dual necklace arrangement of n lines."""
    m = n // 2
    half = tuple((j * j + j // 3) % 2 for j in range(m))
    return build_arrangement(m, half + tuple(1 - x for x in half))[1]


def roundtrip(d):
    """``realize_im``'s lines, checked labelled: line W - 1 sweeps into wire W
    and the lines cross in the local sequences of ``d``, which are the closed
    form of the model's bead word."""
    arr = realize_im(d)
    res = lines_to_diagram(arr)
    assert res.wire_of_line == {i: i + 1 for i in range(d.n)}
    assert res.diagram.local_sequences() == d.local_sequences() == model_sequences(
        [int(c) for c in bead_word(arr)])
    return arr


def bead_word(arr):
    """The word the model was built from: s_W = 1 when line W - 1 passes
    below the unit circle, that is when its intercept is negative."""
    return "".join("1" if ln.intercept < 0 else "0" for ln in arr.lines)


def test_not_in_im_rejected():
    for d in (validate_wiring(4, [2, 1, 3, 2, 1, 3]), NON_IM_SIX, TWO_GONS_SIX):
        with pytest.raises(NotInIm):
            realize_im(d)
    with pytest.raises(NotInIm):
        select_insertion_frame(CellComplex(validate_wiring(4, [2, 1, 3, 2, 1, 3])))


def test_base_case_pentagon():
    roundtrip(PENTAGON_5)


def crossing_order(lines, i):
    """The other lines, as indices, in the left-to-right order line i crosses them."""
    l = lines[i]
    others = [j for j in range(len(lines)) if j != i]
    return sorted(others, key=lambda j: (lines[j].intercept - l.intercept)
                  / (l.slope - lines[j].slope))


def test_crossing_sequence_orientation():
    # in Fractions, apart from the sweep: line W - 1 crosses the others in
    # wire W's local sequence, read forwards
    for d in (PENTAGON_5, NECKLACE_8, necklace(16)):
        lines = realize_im(d).lines
        local = d.local_sequences()
        for w in range(1, d.n + 1):
            assert tuple(j + 1 for j in crossing_order(lines, w - 1)) == local[w]


def test_frame_invariants_n7():
    # delete the first wire of an 8-wire necklace diagram's order to get a
    # 7-wire Im instance; read off its own complex, its order is the rest of
    # the 8-wire one, and its first wire again leaves Im behind
    _, d = build_arrangement(4, enumerate_selfdual(4)[0])
    order = select_insertion_frame(CellComplex(d))
    assert len(order) == 3 and order[0] == first_middle_wire(d)
    kept = [w for w in range(1, 9) if w != order[0]]
    d7 = induced_subarrangement(d, kept).diagram
    assert d7.n == 7 and is_in_Im(d7).member
    order7 = select_insertion_frame(CellComplex(d7))
    assert [kept[v - 1] for v in order7] == order[1:]
    b = order7[0]
    assert 1 <= b <= 7 and b == first_middle_wire(d7)
    six = induced_subarrangement(d7, [w for w in range(1, 8) if w != b]).diagram
    assert six.n == 6 and is_in_Im(six).member
    roundtrip(d7)


def first_middle_wire(d):
    """The wire of the middle edge of the first run of three consecutive
    non-critical edges of P, in boundary-cycle order."""
    cx = CellComplex(d)
    P = is_in_Im(d).face
    cycle = cx.boundary_cycle(P)
    noncritical = [cx.face_bounded(cx.twin(e, P)) for e in cycle]
    m = len(cycle)
    i = next(i for i in range(m) if all(noncritical[(i + j) % m] for j in range(3)))
    return cx.edge_wire(cycle[(i + 1) % m])


@cache
def im_classes(n):
    """The commutation classes on n wires in Im, as diagrams."""
    return tuple(d for d in map(partial(WiringDiagram, n), raw_words(n, classes=True))
                 if is_in_Im(d).member)


def cycle_wires(d):
    """The wires of the (>=5)-gon's boundary cycle, in boundary_cycle order."""
    cx = CellComplex(d)
    return [cx.edge_wire(e) for e in cx.boundary_cycle(is_in_Im(d, cx).face)]


def test_insertion_wire():
    # the paper's deletion lemma, at every level of every 6- and 7-wire Im
    # class and of a 16-wire necklace: the diagram of the wires still present
    # is in Im, its gon's cycle is the input's without the deleted wires,
    # from the same start, and the order read off the input's complex
    # deletes its first middle wire
    classes = {n: im_classes(n) for n in (6, 7)}
    assert {n: len(ds) for n, ds in classes.items()} == {6: 52, 7: 114}
    for d in [*classes[6], *classes[7], necklace(16)]:
        order = select_insertion_frame(CellComplex(d))
        assert len(order) == d.n - BASE_N
        kept, cycle = list(range(1, d.n + 1)), cycle_wires(d)
        for b in [*order, None]:
            level = induced_subarrangement(d, kept).diagram
            assert is_in_Im(level).member
            assert [kept[v - 1] for v in cycle_wires(level)] == cycle
            if b is not None:
                assert first_middle_wire(level) == kept.index(b) + 1
                kept.remove(b)
                cycle.remove(b)


def test_realize_builds_no_complex_past_the_base(monkeypatch):
    # Im and the bead word are read off the swaps, and the closing check
    # compares local sequences: no complex is built and no line is swept
    d, sizes = necklace(16), []
    init = CellComplex.__init__

    def counted(self, diagram):
        sizes.append(diagram.n)
        init(self, diagram)

    def unused(*args):
        raise AssertionError("realize_im called is_in_Im")

    monkeypatch.setattr(CellComplex, "__init__", counted)
    monkeypatch.setattr(stretch, "is_in_Im", unused)
    roundtrip(d)
    assert sizes == []
    assert not hasattr(stretch, "CellComplex") and not hasattr(stretch, "lines_to_diagram")


def test_failed_labelled_check_names_the_bead_word(monkeypatch):
    # by the triple rule only a broken closed form fails the check:
    # WrongLabels, naming the word
    d = necklace(8)
    assert d.local_sequences() != NECKLACE_8.local_sequences()
    s = bead_word(realize_im(d))
    monkeypatch.setattr(stretch, "model_sequences", lambda word: NECKLACE_8.local_sequences())
    with pytest.raises(WrongLabels, match=f"bead word {s} "):
        realize_im(d)


def non_monotone_words(n):
    """The 2^n - 2n words of n bits that are not 0^k 1^(n-k) or 1^k 0^(n-k)."""
    return [s for s in itertools.product((0, 1), repeat=n)
            if sum(s[i] != s[i + 1] for i in range(n - 1)) > 1]


def test_model_sweeps_into_the_closed_form():
    # the geometric half of the theorem, apart from any diagram: the tangent
    # model of every non-monotone word sweeps into the closed form, line
    # W - 1 on wire W, and its one (>=5)-gon has n sides
    count = 0
    for n in range(5, 11):
        for s in non_monotone_words(n):
            res = lines_to_diagram(tangent_model(s))
            assert res.wire_of_line == {i: i + 1 for i in range(n)}
            assert res.diagram.local_sequences() == model_sequences(s)
            assert [c for c in census_sides(n, res.diagram.swaps) if c >= 5] == [n]
            count += 1
    assert count == 1926


def test_closed_form_is_the_triple_rule():
    # on wire W, the order of x < y is the triple rule's for the triple
    # sorted: in 1 2 1, a meets b first, b meets a, c meets a; in 2 1 2 the
    # reverse.  Every word with n = 3..7 covers all 24 cases of x's, y's and
    # W's bits and of how many of x and y exceed W
    cases = set()
    for n in range(3, 8):
        for s in itertools.product((0, 1), repeat=n):
            seqs = model_sequences(s)
            for w in range(1, n + 1):
                pos = {v: i for i, v in enumerate(seqs[w])}
                for x, y in itertools.combinations([v for v in range(1, n + 1) if v != w], 2):
                    a, b, c = sorted((w, x, y))
                    one_two_one = s[a - 1] + s[c - 1] > s[b - 1]
                    first = {a: (b, c), b: (a, c), c: (a, b)}[w][0 if one_two_one else 1]
                    assert (pos[x] < pos[y]) == (first == x)
                    cases.add((s[x - 1], s[y - 1], s[w - 1], (x > w) + (y > w)))
    assert len(cases) == 24


def test_triple_rule_on_im_classes():
    # wire b meets a before c exactly when s_a + s_c > s_b, on every triple
    # of every Im class with n <= 7; s is read off the complex here, and
    # realize_im's lines carry the same word
    count = 0
    for n in (5, 6, 7):
        for d in im_classes(n):
            cx = CellComplex(d)
            P = is_in_Im(d, cx).face
            s = [int(P in cx.sw.upper_face[w * n:(w + 1) * n]) for w in range(n)]
            assert bead_word(realize_im(d)) == "".join(map(str, s))
            local = d.local_sequences()
            for a, b, c in itertools.combinations(range(1, n + 1), 3):
                seq = local[b]
                assert (seq.index(a) < seq.index(c)) == (s[a - 1] + s[c - 1] > s[b - 1])
            count += 1
    assert count == 188


def test_recursive_realization_n8():
    _, d = build_arrangement(4, enumerate_selfdual(4)[1])
    arr = roundtrip(d)
    # exact rational output, one line per wire
    assert arr.n == 8


@pytest.mark.parametrize("n", [5, 6])
def test_base_case_all_im_classes(n):
    # every commutation class of five and six wires round-trips labelled
    classes = im_classes(n)
    assert len(classes) == {5: 22, 6: 52}[n]
    for d in classes:
        roundtrip(d)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_realize_im_classes(n):
    # every commutation class round-trips labelled, and the bead words are
    # the 2^n - 2n non-monotone words, each once
    classes = im_classes(n)
    assert len(classes) == {5: 22, 6: 52, 7: 114}[n] == 2 ** n - 2 * n
    words = {bead_word(roundtrip(d)) for d in classes}
    monotone = {"0" * k + "1" * (n - k) for k in range(n + 1)}
    monotone |= {w.translate(str.maketrans("01", "10")) for w in monotone}
    assert words == {"".join(w) for w in itertools.product("01", repeat=n)} - monotone


def test_realize_selfdual_necklaces():
    # the 34 self-dual necklaces with m = 3..8; for m <= 5 the bead word pairs
    # wires 2j + 1 and 2j + 2 as "10" for bead j = 0 and "01" for bead j = 1
    count = 0
    for m in range(3, 9):
        for beads in enumerate_selfdual(m):
            arr = roundtrip(build_arrangement(m, beads)[1])
            count += 1
            if m <= 5:
                assert bead_word(arr) == "".join("01" if b else "10" for b in beads[:m])
    assert count == 34


def test_realize_twelve_wire_cuts():
    cuts = twelve_wire_cuts(12, 30) + twelve_wire_cuts(1414, 120)
    assert len(cuts) == 150
    for d in cuts:
        roundtrip(d)


@pytest.mark.parametrize("n", [16, 24, 48])
def test_realize_necklace_roundtrip(n):
    assert roundtrip(necklace(n)).n == n


@pytest.mark.parametrize("n", [16, 32, 128, 256])
def test_realize_seeded_necklace_roundtrip(n):
    assert roundtrip(seeded_necklace(n)).n == n


def seeded_necklace(n):
    """The diagram of a self-dual necklace arrangement of n lines, beads from
    ``random.Random(n)``."""
    rng = random.Random(n)
    half = tuple(rng.randint(0, 1) for _ in range(n // 2))
    return build_arrangement(n // 2, half + tuple(1 - x for x in half))[1]


def test_realize_n64_coordinates_stay_short():
    # p and q are at most n, so no numerator or denominator needs more than
    # 2 * ceil(log2(n + 1)) + 1 bits
    arr = roundtrip(seeded_necklace(64))
    assert max(max(f.numerator.bit_length(), f.denominator.bit_length())
               for ln in arr.lines for f in ln) <= 15


def test_realize_stack_does_not_grow_with_n():
    # nothing recurses over the wires; 60 frames past the caller's depth
    # hold the whole realization at n = 64
    d = seeded_necklace(64)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        arr = realize_im(d)
    finally:
        sys.setrecursionlimit(limit)
    assert arr.n == 64


@pytest.mark.parametrize("n, digest", [
    pytest.param(24, "1cd747ca1fc79bcc1b6d226b1cf80354de75b46468fd884aa70d4a27b8d05920",
                 id="24"),
    pytest.param(64, "7dd64ee27b88d715dc42cbea25c6dbdf7c8e7dbe127a0b4c69f31e94e5ed6aa0",
                 id="64"),
])
def test_realize_output_is_pinned(n, digest, tmp_path, capsys):
    # the printed lines, byte for byte: any change to the realizer that
    # moves a coordinate shows here
    path = tmp_path / "d.txt"
    path.write_text(format_diagram(seeded_necklace(n)))
    assert main(["realize", str(path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def twelve_wire_cuts(seed, count):
    """Distinct Im diagrams of 12 wires: the line pairs of 6 seeded directions
    kept out of seeded self-dual necklace arrangements of 24 lines."""
    rng = random.Random(seed)
    out = {}
    while len(out) < count:
        half = tuple(rng.randint(0, 1) for _ in range(12))
        arr, d = build_arrangement(12, half + tuple(1 - b for b in half))
        wire = lines_to_diagram(arr).wire_of_line
        dirs = rng.sample(range(12), 6)
        sub = induced_subarrangement(d, [wire[j] for j in dirs] + [wire[j + 12] for j in dirs])
        if is_in_Im(sub.diagram).member:
            out.setdefault(sub.diagram.swaps, sub.diagram)
    return list(out.values())
