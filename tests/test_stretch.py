import itertools

import pytest

from pseudoline.cells import build_cell_complex
from pseudoline.errors import NotInIm, WrongLabels
from pseudoline.isomorphism import isomorphic
from pseudoline.lines import LineArrangement, lines_to_diagram
from pseudoline.necklace import build_arrangement, enumerate_selfdual
from pseudoline.stretch import (
    BASE_N,
    _insert,
    _realize_without,
    realize_im,
    select_insertion_frame,
)
from pseudoline.wiring import validate_wiring

PENTAGON_5 = validate_wiring(5, [1, 2, 1, 3, 4, 3, 2, 1, 3, 2])
NECKLACE_8 = build_arrangement(4, enumerate_selfdual(4)[1])[1]


def necklace(n):
    """The diagram of a fixed self-dual necklace arrangement of n lines."""
    m = n // 2
    half = tuple((j * j + j // 3) % 2 for j in range(m))
    return build_arrangement(m, half + tuple(1 - x for x in half))[1]


def roundtrip(d, seed=0):
    arr = realize_im(d, seed=seed)
    assert isomorphic(lines_to_diagram(arr).diagram, d)
    return arr


def test_not_in_im_rejected():
    with pytest.raises(NotInIm):
        realize_im(validate_wiring(4, [2, 1, 3, 2, 1, 3]))
    with pytest.raises(NotInIm):
        select_insertion_frame(validate_wiring(4, [2, 1, 3, 2, 1, 3]))


def test_base_case_pentagon():
    roundtrip(PENTAGON_5)


def test_base_case_seed_dependence():
    # different seeds still succeed
    roundtrip(PENTAGON_5, seed=7)


def test_crossing_sequence_orientation():
    # each frame wire runs with P on its left: left to right when P is above
    # its frame edge, so its sequence is its local sequence, else reversed
    st = select_insertion_frame(PENTAGON_5)
    cx = build_cell_complex(PENTAGON_5)
    local = PENTAGON_5.local_sequences()
    assert set(st.seq) == set(st.wires)
    for w, e in zip(st.wires, st.edges):
        assert cx.edge_wire(e) == w
        forward = cx.sw.upper_face[e] == st.P
        assert st.seq[w] == (local[w] if forward else local[w][::-1])


def test_frame_invariants_n7():
    _, d = build_arrangement(4, enumerate_selfdual(4)[0])
    # delete one wire of the 8-gon diagram to get a 7-wire Im instance
    from pseudoline.wiring import induced_subarrangement

    st7 = select_insertion_frame(d)
    b = st7.wires[1]
    ind = induced_subarrangement(d, [w for w in range(1, 9) if w != b])
    assert ind.diagram.n == 7
    st = select_insertion_frame(ind.diagram)
    n = 7
    assert 3 <= st.k <= n - 1 and 2 <= st.t <= n - 3 and 1 <= st.r <= n - 3
    assert st.r <= st.t <= st.k - 1
    a, bb, c = st.wires
    assert st.seq[a][st.k - 1] == c
    assert st.seq[bb][st.t - 1] == a
    assert st.seq[c][st.r - 1] == a
    assert len(st.H) == st.k - st.r - 1


def test_recursive_realization_n8():
    _, d = build_arrangement(4, enumerate_selfdual(4)[1])
    assert d.n > BASE_N
    arr = roundtrip(d)
    # exact rational output, one line per wire
    assert arr.n == 8


@pytest.mark.parametrize("n", [5, 6])
def test_base_case_all_im_classes(n):
    from pseudoline.enumeration import enumerate_simple

    classes = list(enumerate_simple(n, filter="im", dedup=True))
    assert len(classes) == {5: 3, 6: 4}[n]
    for d in classes:
        roundtrip(d)


def insertion_inputs(d):
    """The frame of ``d`` and the labeled lines of ``d`` without its wire b."""
    st = select_insertion_frame(d)
    return (st, *_realize_without(d, st.wires[1], seed=0))


def test_insert_with_correct_labels():
    st, lines, line_of, corners = insertion_inputs(NECKLACE_8)
    got = _insert(NECKLACE_8, st, lines, line_of, corners)
    assert got is not None and len(got) == 8
    assert isomorphic(lines_to_diagram(LineArrangement(tuple(got))).diagram, NECKLACE_8)


def test_insert_rejects_swapped_labels():
    st, lines, line_of, corners = insertion_inputs(NECKLACE_8)
    a, b, c = st.wires
    chain = {a, c, *st.H}
    for u, v in itertools.combinations(sorted(line_of), 2):
        swapped = dict(line_of)
        swapped[u], swapped[v] = line_of[v], line_of[u]
        if not {u, v} & chain:
            with pytest.raises(WrongLabels):
                _insert(NECKLACE_8, st, lines, swapped, corners)
            continue
        # moving a line of the slope chain may already trip _normalize_slopes
        try:
            got = _insert(NECKLACE_8, st, lines, swapped, corners)
        except (WrongLabels, AssertionError):
            continue
        assert got is None, (u, v)


@pytest.mark.parametrize("seed", range(4))
def test_realize_n8_seeds(seed):
    assert roundtrip(NECKLACE_8, seed=seed).n == 8


# at n = 48 one insertion needs a shift eta as small as 2^-64
@pytest.mark.parametrize("n", [16, 24, 48])
def test_realize_necklace_roundtrip(n):
    assert roundtrip(necklace(n)).n == n
