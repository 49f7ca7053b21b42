import importlib.util
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import pseudoline
from pseudoline import stretch
from pseudoline.cli import _arrangement_json, main
from pseudoline.enumeration import MAX_N
from pseudoline.lines import Line, LineArrangement
from pseudoline.necklace import build_arrangement, enumerate_selfdual
from pseudoline.stretch import realize_im
from pseudoline.suites import ALL_CHECKS
from pseudoline.wiring import format_diagram, validate_wiring


def write_diagram(tmp_path, text):
    p = tmp_path / "d.txt"
    p.write_text(text)
    return str(p)


def test_analyze(tmp_path, capsys):
    path = write_diagram(tmp_path, "5\n1 2 1 3 4 3 2 1 3 2\n")
    assert main(["analyze", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 5 and payload["im"] is True


def test_analyze_stdin(monkeypatch, capsys):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("3\n1 2 1\n"))
    assert main(["analyze", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["n"] == 3


def test_analyze_parse_error(tmp_path, capsys):
    path = write_diagram(tmp_path, "3\n1 1 2\n")
    assert main(["analyze", path]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,content",
    [
        (["analyze", "missing.txt"], None),
        (["render", "--lines", "lines.json"], '[{"slope": "1"}]'),
        (["render", "--lines", "lines.json"], "not json"),
        (["render", "--lines", "lines.json"], '{"slope": "1", "intercept": "0"}'),
        (["render", "--lines", "lines.json"], '[{"slope": "x", "intercept": "0"}]'),
        (["render", "--lines", "lines.json"], '[{"slope": "1", "intercept": "0"}]'),
        (["render", "--lines", "lines.json"],
         '[{"slope": "1", "intercept": "0"}, {"slope": "1", "intercept": "2"}]'),
        (["render", "--lines", "lines.json"],
         '[{"slope": "1", "intercept": "0"}, {"slope": "1", "intercept": "0"}]'),
        (["render", "--lines", "lines.json"],
         '[{"slope": "1/0", "intercept": "0"}, {"slope": "1", "intercept": "2"}]'),
        (["render", "--lines", "lines.json"],
         '[{"slope": "1e400", "intercept": "0"}, {"slope": "1", "intercept": "2"}]'),
        (["necklace", "--m", "2", "--build", "0000"], None),
        (["necklace", "--m", "1", "--build", "01"], None),
        (["analyze", "d.txt"], "3\n1 2 1\n9 9\n"),
        (["analyze", "d.txt"], "3\n1 2 1\n3\n2 1 2\n"),
        # an exponent Fraction would expand for minutes; a JSON number
        (["render", "--lines", "lines.json"],
         '[{"slope": "1e999999999", "intercept": "0"}, {"slope": "1", "intercept": "0"}]'),
        (["render", "--lines", "lines.json"],
         '[{"slope": 1e400, "intercept": "0"}, {"slope": "1", "intercept": "2"}]'),
        # nested deeper than the JSON parser's recursion limit
        pytest.param(["render", "--lines", "lines.json"], "[" * 200_000, id="deep-json"),
        # a parse error quotes a bounded prefix of the offending text
        pytest.param(["analyze", "d.txt"], "[" * 200_000, id="long-wire-count"),
        pytest.param(["analyze", "d.txt"], "3\n1 2 " + "x" * 200_000 + "\n", id="long-track"),
        pytest.param(["analyze", "d.txt"], "3\n1 2 1\n" + "z" * 200_000, id="long-trailing-text"),
        pytest.param(["render", "--lines", "lines.json"],
                     '[{"slope": "' + "x" * 200_000 + '", "intercept": "0"}, '
                     '{"slope": "1", "intercept": "2"}]', id="long-fraction"),
        pytest.param(["render", "--lines", "lines.json"],
                     '[{"slope": [' + ", ".join(["1"] * 50_000) + '], "intercept": "0"}, '
                     '{"slope": "1", "intercept": "2"}]', id="long-non-string-fraction"),
        pytest.param(["render", "--lines", "lines.json"],
                     '[{"slope": "' + "1" * 5_000 + '", "intercept": "0"}, '
                     '{"slope": "1", "intercept": "2"}]', id="fraction-past-the-digit-limit"),
        pytest.param(["analyze", "d.txt"], "1" * 2_001 + "\n1\n", id="long-wire-count-mismatch"),
        pytest.param(["analyze", "d.txt"], "-" + "1" * 2_001 + "\n1\n", id="long-negative-wire-count"),
        pytest.param(["analyze", "d.txt"], "3\n1 2 " + "7" * 2_001 + "\n", id="long-track-number"),
        pytest.param(["render", "--lines", "lines.json"], '[{"slope": "1", "intercept": "0"}, 3]',
                     id="line-not-an-object"),
    ],
)
def test_input_errors_exit_2(argv, content, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    if content is not None:
        (tmp_path / argv[-1]).write_text(content)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 120


@pytest.mark.parametrize("content, want", [
    ('{"slope": "1", "intercept": "0"}', "expected a JSON list of lines"),
    ('[{"slope": "1", "intercept": "0"}, 3]', "entry 1 of the list is not a {slope, intercept} object"),
    ('[{"slope": "1", "intercept": "0"}, {"slope": "2"}]',
     "entry 1 of the list is not a {slope, intercept} object"),
])
def test_line_json_shape_errors_name_the_entry(content, want, tmp_path, capsys):
    p = tmp_path / "lines.json"
    p.write_text(content)
    assert main(["render", "--lines", str(p)]) == 2
    assert want in capsys.readouterr().err


def test_enumerate_count(capsys):
    assert main(["enumerate", "--n", "4", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "16"


def test_enumerate_words(capsys):
    assert main(["enumerate", "--n", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == ["1 2 1", "2 1 2"]


def test_enumerate_dedup(capsys):
    assert main(["enumerate", "--n", "4", "--dedup", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_enumerate_jobs(capsys):
    assert main(["enumerate", "--n", "5", "--count-only", "--jobs", "2"]) == 0
    assert capsys.readouterr().out.strip() == "768"


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_enumerate_n1(jobs, capsys):
    assert main(["enumerate", "--n", "1", "--count-only", "--jobs", jobs]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_enumerate_n_out_of_range():
    with pytest.raises(SystemExit):
        main(["enumerate", "--n", "9", "--count-only"])


@pytest.mark.parametrize("command", ["verify", "enumerate"])
@pytest.mark.parametrize("n", ["0", str(MAX_N + 1), "x"])
def test_n_usage_errors_exit_2(command, n, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", n])
    assert exc.value.code == 2
    assert "argument --n" in capsys.readouterr().err


@pytest.mark.parametrize("mode", [[], ["--dedup"], ["--filter", "im"]])
def test_enumerate_jobs_rejected_where_it_does_not_shard(mode, capsys):
    # listing does not shard: the words of every shard would be held until the last ends
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--n", "4", "--jobs", "2", *mode])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_necklace_count(capsys):
    assert main(["necklace", "--m", "5", "--count"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_necklace_list(capsys):
    assert main(["necklace", "--m", "3", "--list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all(len(s) == 6 for s in lines)


def test_necklace_build(capsys):
    assert main(["necklace", "--m", "3", "--build", "000111"]) == 0
    out = capsys.readouterr().out.splitlines()
    arr = json.loads(out[0])
    assert len(arr) == 6 and all("slope" in e for e in arr)
    assert out[1] == "6" and len(out[2].split()) == 15


def test_necklace_build_bad_length(capsys):
    assert main(["necklace", "--m", "3", "--build", "01"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["necklace", "--m", "0", "--count"],
        ["necklace", "--m", "-2", "--list"],
        ["necklace", "--m", "2", "--build", "0a01"],
    ],
)
def test_necklace_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "enumerate"])
@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_jobs_usage_errors_exit_2(command, jobs, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "4", "--jobs", jobs])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


@pytest.fixture
def pool_sizes(monkeypatch):
    """Replaces ``multiprocessing.Pool`` by one that runs the shards
    in-process; the list it returns gets the pool size of each call."""
    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def starmap(self, fn, args):
            return [fn(*a) for a in args]

    monkeypatch.setattr("multiprocessing.Pool", FakePool)
    return sizes


@pytest.mark.parametrize(
    "argv", [["verify", "--n", "4"], ["enumerate", "--n", "4", "--count-only"]]
)
def test_jobs_is_capped_at_the_shard_count(argv, pool_sizes, capsys):
    assert main(argv + ["--jobs", "1"]) == 0
    expected = capsys.readouterr().out
    assert main(argv + ["--jobs", "1000"]) == 0
    assert capsys.readouterr().out == expected
    assert pool_sizes == [3]  # n - 1 one-letter prefixes at n = 4


@pytest.mark.parametrize(
    "n,mode,count",
    [(4, [], 16), (5, [], 768), (5, ["--filter", "one-ge5"], 212), (5, ["--filter", "im"], 212),
     (6, ["--dedup"], 43), (6, ["--dedup", "--filter", "im"], 4)],
)
def test_enumerate_count_is_the_same_in_shards(n, mode, count, pool_sizes, capsys):
    argv = ["enumerate", "--n", str(n), "--count-only", *mode]
    assert main(argv + ["--jobs", "1"]) == 0
    assert capsys.readouterr().out == f"{count}\n"
    assert main(argv + ["--jobs", "3"]) == 0
    assert capsys.readouterr().out == f"{count}\n"
    assert pool_sizes == [3]


def test_enumerate_dedup_jobs(capsys):
    assert main(["enumerate", "--n", "6", "--dedup", "--count-only", "--jobs", "2"]) == 0
    assert capsys.readouterr().out.strip() == "43"


def test_realize_roundtrip(tmp_path, capsys):
    path = write_diagram(tmp_path, "5\n1 2 1 3 4 3 2 1 3 2\n")
    assert main(["realize", path]) == 0
    arr = json.loads(capsys.readouterr().out)
    assert len(arr) == 5


def test_realize_has_no_seed(tmp_path, capsys):
    path = write_diagram(tmp_path, "5\n1 2 1 3 4 3 2 1 3 2\n")
    with pytest.raises(SystemExit) as exc:
        main(["realize", path, "--seed", "1"])
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_realize_is_deterministic(tmp_path):
    """Two fresh interpreters with different string hash seeds print the same lines."""
    path = tmp_path / "d.txt"
    path.write_text(format_diagram(build_arrangement(6, enumerate_selfdual(6)[-1])[1]))
    src = Path(pseudoline.__file__).resolve().parents[1]
    runs = [
        subprocess.run([sys.executable, "-m", "pseudoline.cli", "realize", str(path)],
                       env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": hs,
                            "PYTHONDONTWRITEBYTECODE": "1"},
                       capture_output=True)
        for hs in ("0", "1")
    ]
    assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout and len(json.loads(runs[0].stdout)) == 12


def test_arrangement_json_is_json_dumps():
    rng = random.Random(32)
    half = tuple(rng.randint(0, 1) for _ in range(16))
    realized = realize_im(build_arrangement(16, half + tuple(1 - b for b in half))[1])
    small = LineArrangement((Line(Fraction(-3, 7), Fraction(5)), Line(Fraction(0), Fraction(-12)),
                             Line(Fraction(1), Fraction(-1, 2 ** 70))))
    for arr in (realized, small, LineArrangement(())):
        expected = json.dumps([{"slope": f"{l.slope}", "intercept": f"{l.intercept}"}
                               for l in arr.lines])
        assert _arrangement_json(arr) == expected


def test_realize_rejects_non_im(tmp_path, capsys):
    # the second is the bubble-sort diagram of 200 wires: the error quotes no swap word
    for text in ("4\n2 1 3 2 1 3\n",
                 "200\n" + " ".join(str(t) for i in range(199, 0, -1)
                                    for t in range(1, i + 1)) + "\n"):
        path = write_diagram(tmp_path, text)
        assert main(["realize", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 120


def test_realize_exits_1_when_the_round_trip_fails(tmp_path, monkeypatch, capsys):
    # realize_im's closing labelled check is the only one: make it fail by
    # sweeping the lines into another diagram
    other = validate_wiring(5, [1, 2, 3, 4, 1, 2, 3, 1, 2, 1])
    sweep = stretch.lines_to_diagram
    monkeypatch.setattr(stretch, "lines_to_diagram",
                        lambda arr: sweep(arr)._replace(diagram=other))
    path = write_diagram(tmp_path, "5\n1 2 1 3 4 3 2 1 3 2\n")
    assert main(["realize", path]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_render_diagram(tmp_path, capsys):
    path = write_diagram(tmp_path, "3\n1 2 1\n")
    assert main(["render", path]) == 0
    assert capsys.readouterr().out.startswith("<svg ")


def test_render_takes_a_file_or_lines_not_both(tmp_path, capsys):
    path = write_diagram(tmp_path, "3\n1 2 1\n")
    (tmp_path / "lines.json").write_text(
        '[{"slope": "0", "intercept": "0"}, {"slope": "1", "intercept": "0"}]')
    with pytest.raises(SystemExit) as exc:
        main(["render", path, "--lines", str(tmp_path / "lines.json")])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "--lines" in err


def test_render_lines(tmp_path, capsys):
    lines = [
        {"slope": "0", "intercept": "0"},
        {"slope": "1", "intercept": "0"},
        {"slope": "-1", "intercept": "1"},
    ]
    p = tmp_path / "lines.json"
    p.write_text(json.dumps(lines))
    assert main(["render", "--lines", str(p)]) == 0
    assert capsys.readouterr().out.count("<line") == 3


def test_verify_failure_is_the_same_in_shards(pool_sizes, monkeypatch, capsys):
    # each fails on the words of one shard; a shard stops at its first failure
    monkeypatch.setitem(ALL_CHECKS, "counting", lambda cx: cx.diagram.swaps[0] != 1)
    monkeypatch.setitem(ALL_CHECKS, "im-structure", lambda cx: cx.diagram.swaps[0] != 2)
    assert main(["verify", "--n", "5", "--jobs", "1"]) == 1
    out = capsys.readouterr().out
    assert main(["verify", "--n", "5", "--jobs", "4"]) == 1
    assert capsys.readouterr().out == out and pool_sizes == [4]
    assert "counting                     FAIL" in out
    assert "im-structure                 FAIL" in out
    assert out.endswith("counterexample (counting): n=5 swaps=1 2 1 3 2 1 4 3 2 1\n")


def test_verify_n4(capsys):
    assert main(["verify", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "diagrams checked: 8" in out  # arrangements: 16 words, 8 classes
    assert "FAIL" not in out


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_n1(jobs, capsys):
    assert main(["verify", "--n", "1", "--jobs", jobs]) == 0
    out = capsys.readouterr().out
    assert "diagrams checked: 1" in out
    assert "FAIL" not in out


def test_cli_import_contract():
    """`import pseudoline.cli` in a fresh interpreter (no site hooks) loads
    every module the benchmark's tracer wraps, and none of the heavy stdlib
    modules that only some commands need."""
    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location("tracer", root / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    src = Path(pseudoline.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, pseudoline.cli; print(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True, check=True,
    )
    loaded = set(proc.stdout.split())
    assert not loaded & {"dataclasses", "inspect", "ast", "multiprocessing", "json"}
    assert {f"pseudoline.{module}" for module, _ in tracer.LAYERS} <= loaded


@pytest.mark.parametrize("command", ["verify", "realize"])
def test_cli_result_does_not_rest_on_asserts(command, tmp_path):
    """`python -O` strips every assert; the exit code and output stay the same."""
    path = tmp_path / "d.txt"
    path.write_text(format_diagram(build_arrangement(4, enumerate_selfdual(4)[1])[1]))
    argv = {"verify": ["verify", "--n", "4"], "realize": ["realize", str(path)]}[command]
    src = Path(pseudoline.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    plain, optimized = (
        subprocess.run([sys.executable, *flags, "-m", "pseudoline.cli", *argv],
                       env=env, capture_output=True, text=True)
        for flags in ([], ["-O"])
    )
    assert plain.returncode == 0, plain.stderr
    assert (optimized.returncode, optimized.stdout) == (plain.returncode, plain.stdout)
