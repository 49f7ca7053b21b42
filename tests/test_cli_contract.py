"""The CLI's exit-code contract on generated input: 0 success, 1 verification
failure, 2 usage or input error, and never an uncaught exception."""

import contextlib
import io
import json
import sys

from hypothesis import given, settings, strategies as st

from pseudoline.cli import main
from pseudoline.enumeration import enumerate_simple
from pseudoline.wiring import format_diagram

from test_wiring import valid_diagrams

CONTRACT = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def run(argv, stdin=""):
    """Exit code and stderr of ``main(argv)``; any other exception escapes."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved
    return code, err.getvalue()


# few values, so that parallel lines and three lines through a point are common
small = st.fractions(min_value=-2, max_value=2, max_denominator=2).map(str)
line = st.fixed_dictionaries({"slope": small, "intercept": small})


@CONTRACT
@given(st.lists(line, max_size=4))
def test_render_lines_contract(lines):
    code, err = run(["render", "--lines", "-"], json.dumps(lines))
    assert "Traceback" not in err
    distinct = len({e["slope"] for e in lines}) == len(lines)
    assert code == (0 if len(lines) >= 2 and distinct else 2), err


m_arg = st.one_of(st.integers(-2, 6).map(str), st.text(max_size=3))
mode = st.one_of(
    st.just(["--count"]),
    st.just(["--list"]),
    st.text(alphabet="01x", max_size=12).map(lambda s: ["--build", s]),
)


@CONTRACT
@given(m_arg, mode)
def test_necklace_contract(m, rest):
    code, err = run(["necklace", "--m", m, *rest])
    assert "Traceback" not in err
    assert code in (0, 1, 2), err


def corrupt(text, at, patch):
    """``text`` with the character at ``at`` (if any) replaced by ``patch``."""
    return text[:at] + patch + text[at + 1:]


# random words (n <= 7) are rarely in Im, so realize also gets the Im classes
im_diagrams = st.sampled_from([d for n in (5, 6) for d in enumerate_simple(n, "im", dedup=True)])
valid_text = st.one_of(valid_diagrams, im_diagrams).map(format_diagram)
corrupted_text = st.builds(
    corrupt, valid_text, st.integers(0, 30), st.text(alphabet="0123456789 -x\n", max_size=3)
)
diagram_text = st.one_of(valid_text, corrupted_text)


@CONTRACT
@given(st.sampled_from(["analyze", "realize", "render"]), diagram_text)
def test_diagram_file_contract(command, text):
    code, err = run([command, "-"], text)
    assert "Traceback" not in err
    assert code in (0, 1, 2), err
