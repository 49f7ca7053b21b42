import hashlib
import itertools
import random
import sys
from fractions import Fraction
from functools import partial

import pytest

import place_oracle
from pseudoline import stretch
from pseudoline.analysis import is_in_Im
from pseudoline.cells import CellComplex
from pseudoline.cli import main
from pseudoline.enumeration import enumerate_simple, raw_words
from pseudoline.errors import NotInIm, WrongLabels
from pseudoline.isomorphism import canonical_form, isomorphic
from pseudoline.lines import Line, LineArrangement, lines_to_diagram
from pseudoline.necklace import build_arrangement, enumerate_selfdual
from pseudoline.stretch import (
    BASE_N,
    _insert,
    realize_im,
    select_insertion_frame,
)
from pseudoline.wiring import (WiringDiagram, format_diagram, induced_subarrangement,
                               validate_wiring)

PENTAGON_5 = validate_wiring(5, [1, 2, 1, 3, 4, 3, 2, 1, 3, 2])
NECKLACE_8 = build_arrangement(4, enumerate_selfdual(4)[1])[1]
LOCAL_8 = NECKLACE_8.local_sequences()


def necklace(n):
    """The diagram of a fixed self-dual necklace arrangement of n lines."""
    m = n // 2
    half = tuple((j * j + j // 3) % 2 for j in range(m))
    return build_arrangement(m, half + tuple(1 - x for x in half))[1]


def roundtrip(d):
    arr = realize_im(d)
    assert isomorphic(lines_to_diagram(arr).diagram, d)
    return arr


def test_not_in_im_rejected():
    with pytest.raises(NotInIm):
        realize_im(validate_wiring(4, [2, 1, 3, 2, 1, 3]))
    with pytest.raises(NotInIm):
        select_insertion_frame(CellComplex(validate_wiring(4, [2, 1, 3, 2, 1, 3])))


def test_non_im_base_case_is_rejected_before_sampling(monkeypatch):
    monkeypatch.setattr(stretch, "_realize_base", lambda d: pytest.fail("looked up"))
    with pytest.raises(NotInIm):
        realize_im(validate_wiring(4, [2, 1, 3, 2, 1, 3]))


def test_base_case_pentagon():
    roundtrip(PENTAGON_5)


def crossing_order(lines, i):
    """The other lines, as indices, in the left-to-right order line i crosses them."""
    l = lines[i]
    others = [j for j in range(len(lines)) if j != i]
    return sorted(others, key=lambda j: (lines[j].intercept - l.intercept)
                  / (l.slope - lines[j].slope))


def test_crossing_sequence_orientation():
    # each wire's line crosses the others in its wire's local sequence, read
    # forwards or backwards, and the lines of the cyclic slope order run
    # through the wires one way round or the other
    for d in (PENTAGON_5, NECKLACE_8, necklace(16)):
        lines, line_of = stretch._realize(CellComplex(d))
        wire_of = {i: w for w, i in line_of.items()}
        assert sorted(wire_of) == list(range(d.n))
        local = d.local_sequences()
        for w, i in line_of.items():
            got = tuple(wire_of[j] for j in crossing_order(lines, i))
            assert got in (local[w], local[w][::-1])
        by_slope = sorted(line_of, key=lambda w: lines[line_of[w]].slope)
        start = by_slope.index(1)
        cyc = by_slope[start:] + by_slope[:start]
        assert cyc in (list(range(1, d.n + 1)), [1] + list(range(d.n, 1, -1)))


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


def im_classes(n):
    """The commutation classes on n wires in Im, as diagrams."""
    return [d for d in map(partial(WiringDiagram, n), raw_words(n, classes=True))
            if is_in_Im(d).member]


def cycle_wires(d):
    """The wires of the (>=5)-gon's boundary cycle, in boundary_cycle order."""
    cx = CellComplex(d)
    return [cx.edge_wire(e) for e in cx.boundary_cycle(is_in_Im(d, cx).face)]


def test_insertion_wire():
    # every level of every 6- and 7-wire Im class and of a 16-wire necklace:
    # the diagram of the wires still present is in Im, its gon's cycle is
    # the input's without the deleted wires, from the same start, and the
    # order read off the input's complex deletes its first middle wire
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
    # the deletion order and the local sequences come from the input's one
    # complex; the base case and the final check build only small ones
    d, sizes = necklace(16), []
    init = CellComplex.__init__

    def counted(self, diagram):
        sizes.append(diagram.n)
        init(self, diagram)

    monkeypatch.setattr(CellComplex, "__init__", counted)
    stretch._realize(CellComplex(d))
    assert sizes[0] == 16 and max(sizes[1:]) <= BASE_N
    sizes.clear()
    realize_im(d)
    assert sorted(sizes)[-2:] == [BASE_N, 16]


def test_base_case_outside_the_table_is_a_construction_bug(monkeypatch):
    # no level re-checks Im, so a remainder missing from the table is
    # WrongLabels, not a KeyError
    monkeypatch.setattr(stretch, "BASE_LINES", {})
    with pytest.raises(WrongLabels):
        realize_im(PENTAGON_5)


def test_recursive_realization_n8():
    _, d = build_arrangement(4, enumerate_selfdual(4)[1])
    assert d.n > BASE_N
    arr = roundtrip(d)
    # exact rational output, one line per wire
    assert arr.n == 8


def test_base_table_realizes_each_5_wire_im_class():
    classes = {canonical_form(d).word for d in enumerate_simple(5, filter="im", dedup=True)}
    assert set(stretch.BASE_LINES) == classes
    for word, lines in stretch.BASE_LINES.items():
        arr = LineArrangement(tuple(Line(Fraction(m), Fraction(c)) for m, c in lines))
        assert canonical_form(lines_to_diagram(arr).diagram).word == word


@pytest.mark.parametrize("n", [5, 6])
def test_base_case_all_im_classes(n):
    # every commutation class: n = 5 through the table, labeled by an
    # isomorphism, n = 6 through one insertion
    classes = im_classes(n)
    assert len(classes) == {5: 22, 6: 52}[n]
    for d in classes:
        roundtrip(d)


def insertion_inputs(d):
    """The wire b that ``d`` inserts last, and the labeled lines of ``d`` without it."""
    b = select_insertion_frame(CellComplex(d))[0]
    kept = [w for w in range(1, d.n + 1) if w != b]
    lines, line_of = stretch._realize(CellComplex(induced_subarrangement(d, kept).diagram))
    return b, lines, {kept[v - 1]: i for v, i in line_of.items()}


def test_insert_with_correct_labels():
    b, lines, line_of = insertion_inputs(NECKLACE_8)
    got = _insert(LOCAL_8, b, lines, line_of)
    assert got is not None and len(got) == 8
    assert isomorphic(lines_to_diagram(LineArrangement(tuple(got))).diagram, NECKLACE_8)


def shear_rotate(lines, g):
    """The lines after (x, y) -> (x, y - g*x) and a quarter turn, which sends
    slope g to the vertical."""
    return [Line(-1 / (l.slope - g), l.intercept / (l.slope - g)) for l in lines]


def test_insert_does_not_depend_on_the_child_marking():
    # An affine map keeps every row of the child's lines up to reversal; one
    # sending a slope in each of the n - 1 gaps to the vertical starts the
    # cyclic slope order at each wire in turn, and a mirror reverses it.
    b, lines, line_of = insertion_inputs(NECKLACE_8)
    slopes = sorted(l.slope for l in lines)
    branches = set()  # (mirrored by _insert, d* in the gap through the vertical)
    for g in [(s + t) / 2 for s, t in zip(slopes, slopes[1:])] + [slopes[-1] + 1]:
        turned = shear_rotate(lines, g)
        for moved in (turned, stretch._mirror(turned)):
            got = _insert(LOCAL_8, b, moved, line_of)
            assert got is not None
            assert isomorphic(lines_to_diagram(LineArrangement(tuple(got))).diagram, NECKLACE_8)
            branches.add((got[:-1] != moved, got[-1].slope > max(l.slope for l in got[:-1])))
    assert {m for m, _ in branches} == {w for _, w in branches} == {False, True}


def test_insert_rejects_swapped_labels():
    # swapping two lines breaks the cyclic order of the wires by slope, so
    # every swap stops at _insert's wire-order check, before _place
    b, lines, line_of = insertion_inputs(NECKLACE_8)
    for u, v in itertools.combinations(sorted(line_of), 2):
        swapped = dict(line_of)
        swapped[u], swapped[v] = line_of[v], line_of[u]
        with pytest.raises(WrongLabels):
            _insert(LOCAL_8, b, lines, swapped)


@pytest.mark.parametrize("n", [16, 24, 48])
def test_realize_necklace_roundtrip(n):
    assert roundtrip(necklace(n)).n == n


def seeded_necklace(n):
    """The diagram of a self-dual necklace arrangement of n lines, beads from
    ``random.Random(n)``."""
    rng = random.Random(n)
    half = tuple(rng.randint(0, 1) for _ in range(n // 2))
    return build_arrangement(n // 2, half + tuple(1 - x for x in half))[1]


def test_realize_n64_coordinates_stay_short():
    # each slope and intercept is the simplest rational of its open interval,
    # so no coordinate inherits the bits of the interval's ends
    arr = roundtrip(seeded_necklace(64))
    assert max(max(f.numerator.bit_length(), f.denominator.bit_length())
               for ln in arr.lines for f in ln) <= 100


def test_realize_stack_does_not_grow_with_n():
    # the 59 levels down to BASE_N run in a loop; 60 frames past the
    # caller's depth could not hold a recursion of one frame per level
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
    (24, "19cee3cde8d8613551bdacd2fa3bba618ea821b5674f76176e4c246bf8b2b6c6"),
    (64, "e135e32cfdf08a1a99bac5a6f7f752f5d7076f3bb48d8a48099dc18b5a16fb92"),
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


@pytest.fixture
def place_outcomes(monkeypatch):
    """Run the Fraction oracle next to every ``_place`` call.  Both must raise
    the same exception, or else: the lines, sorted by slope, carry their
    wires in ascending cyclic order; None comes exactly when no intercept
    fits for sigma; and d* adds one line of slope sigma whose intercept is
    strictly inside the oracle's intercept interval, and which keeps the
    cyclic order with b among the wires.  Returns the outcomes."""
    place = stretch._place
    outcomes = []

    def outcome(f, *args):
        try:
            return f(*args), None
        except Exception as exc:  # compared with the oracle's, then re-raised
            return None, exc

    def both(seq, b, lines, line_of, sigma):
        got, err = outcome(place, seq, b, lines, line_of, sigma)
        slot, want_err = outcome(place_oracle.slots, seq, b, lines, line_of)
        assert (type(err), getattr(err, "args", None)) == (type(want_err),
                                                          getattr(want_err, "args", None))
        if err:
            outcomes.append(type(err))
            raise err
        assert place_oracle.cyclic_ascending(lines, line_of)
        ilo, ihi = place_oracle.intercept_interval(lines, line_of, slot, sigma)
        assert (got is None) == (ilo is not None and ihi is not None and ilo >= ihi)
        if got:
            assert got[:-1] == lines and len(got) == len(lines) + 1
            assert got[-1].slope == sigma
            assert place_oracle.cyclic_ascending(got, {**line_of, b: len(lines)})
            t = got[-1].intercept
            assert (ilo is None or ilo < t) and (ihi is None or t < ihi)
        outcomes.append(got is not None)
        return got

    monkeypatch.setattr(stretch, "_place", both)
    return outcomes


def test_place_matches_fraction_oracle(place_outcomes):
    realize_im(NECKLACE_8)
    for n in (16, 24):
        realize_im(necklace(n))
    for d in twelve_wire_cuts(12, 30):
        realize_im(d)
    # every level places its line on the one call it gets
    assert place_outcomes == [True] * (3 + 11 + 19 + 30 * 7)


def test_place_matches_fraction_oracle_on_swapped_labels(place_outcomes):
    b, lines, line_of = insertion_inputs(NECKLACE_8)
    got = _insert(LOCAL_8, b, lines, line_of)  # the lines as _place sees them, and sigma
    lines, sigma = got[:-1], got[-1].slope
    pairs = list(itertools.combinations(sorted(line_of), 2))
    for u, v in pairs:
        swapped = dict(line_of)
        swapped[u], swapped[v] = line_of[v], line_of[u]
        with pytest.raises(WrongLabels):
            stretch._place(LOCAL_8, b, lines, swapped, sigma)
    # the child's levels n = 6 and 7 and b's insertion place their lines
    assert place_outcomes == [True] * 3 + [WrongLabels] * len(pairs)
