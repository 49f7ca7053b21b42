import json

import pytest

from pseudoline.cli import main


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


def test_realize_roundtrip(tmp_path, capsys):
    path = write_diagram(tmp_path, "5\n1 2 1 3 4 3 2 1 3 2\n")
    assert main(["realize", path, "--seed", "1"]) == 0
    arr = json.loads(capsys.readouterr().out)
    assert len(arr) == 5


def test_realize_rejects_non_im(tmp_path, capsys):
    path = write_diagram(tmp_path, "4\n2 1 3 2 1 3\n")
    assert main(["realize", path]) == 1


def test_render_diagram(tmp_path, capsys):
    path = write_diagram(tmp_path, "3\n1 2 1\n")
    assert main(["render", path]) == 0
    assert capsys.readouterr().out.startswith("<svg ")


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


def test_verify_n4(capsys):
    assert main(["verify", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "diagrams checked: 16" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_verify_n1(jobs, capsys):
    assert main(["verify", "--n", "1", "--jobs", jobs]) == 0
    out = capsys.readouterr().out
    assert "diagrams checked: 1" in out
    assert "FAIL" not in out
