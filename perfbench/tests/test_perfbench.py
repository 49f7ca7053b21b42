"""Tests of the benchmark itself: seeded inputs, output checks, failure
counting and the per-layer time accounting.

    python3 -m pytest perfbench/tests
"""

import json
import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads as wls  # noqa: E402
from compare import compare  # noqa: E402
from tracer import Profile, per_layer_spec  # noqa: E402

from pseudoline.analysis import face_census  # noqa: E402
from pseudoline.cells import CellComplex  # noqa: E402
from pseudoline.isomorphism import isomorphic  # noqa: E402
from pseudoline.lines import lines_to_diagram  # noqa: E402
from pseudoline.necklace import build_arrangement  # noqa: E402
from pseudoline.wiring import WiringDiagram  # noqa: E402


@pytest.fixture
def env(tmp_path):
    return wls.Env(ROOT, tmp_path)


def first_ops(name, env, seed=1, passes=2):
    stream = wls.WORKLOADS[name].passes(seed, env)
    return [op for _ in range(passes) for op in next(stream)]


@pytest.mark.parametrize("name", ["checks", "realize"])
def test_seed_fixes_the_inputs(name, env):
    keys = [op.key for op in first_ops(name, env, seed=1)]
    assert keys == [op.key for op in first_ops(name, env, seed=1)]
    assert keys != [op.key for op in first_ops(name, env, seed=2)]
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("name", ["verify", "dedup"])
def test_fixed_commands_have_no_generated_input(name, env):
    assert all(op.key is None for op in first_ops(name, env))


def test_guard_rejects_a_repeated_input():
    op = wls.Op((6, (1, 2, 1)), 6)
    with pytest.raises(run.DuplicateInput):
        run.guard_distinct([op, op], set())


def _corrupt_lines(out):
    lines = json.loads(out.value)
    lines[1]["slope"] = lines[0]["slope"]
    return replace(out, value=json.dumps(lines))


CORRUPT = {
    "verify": lambda out: replace(out, value=out.value.replace("pass", "FAIL", 1)),
    "dedup": lambda out: replace(out, value="7\n"),
    "checks": lambda out: replace(out, value={**out.value, "counting": False}),
    "realize": _corrupt_lines,
}


@pytest.mark.parametrize("name", sorted(CORRUPT))
def test_corrupted_output_is_counted_as_failed(name, env):
    wl = wls.WORKLOADS[name]
    op = first_ops(name, env, passes=1)[0]
    out = wl.run(env, op, False, 0)
    result = run.Run()
    run.record(wl, result, [op, op], [out, CORRUPT[name](out)])
    assert (result.attempted, result.failed) == (2, 1)


def test_realize_check_rejects_a_foreign_arrangement(env):
    wl = wls.WORKLOADS["realize"]
    b, *others = first_ops("realize", env, passes=3)
    a = next(op for op in others if not isomorphic(WiringDiagram(12, op.payload),
                                                   WiringDiagram(12, b.payload)))
    out = wl.run(env, b, False, 0)
    assert wl.check(b, out) and not wl.check(a, out)


def test_an_op_that_raises_is_a_failed_op(env, monkeypatch):
    wl = wls.WORKLOADS["checks"]
    ops = first_ops("checks", env, passes=1)[:3]

    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(wl, "run", boom)
    result = run.measure(wl, env, ops, iter(()), 0, False, Profile())
    assert (result.attempted, result.failed) == (3, 3)


def test_a_cli_op_past_the_deadline_is_killed_and_failed(env):
    wl = wls.WORKLOADS["verify"]
    op = wls.Op(None, 6, ["verify", "--n", "6"])  # minutes of work
    env.deadline = 0.0  # long past, so the op gets the shortest timeout
    _, lat, outs = run.run_pass(wl, env, [op], False, 0, Profile())
    assert "TimeoutExpired" in outs[0].error and not wl.check(op, outs[0])
    assert lat[0] < 10


def _self_times_sum_to_op_time(profile):
    metrics = profile.metrics(overhead=1.0)
    total = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert abs(total - metrics["trace.op_s"]) <= 0.01 * metrics["trace.op_s"]
    return metrics


def test_in_process_trace_accounts_for_the_op_time(env):
    wl = wls.WORKLOADS["checks"]
    ops = first_ops("checks", env, passes=1)
    ops = ops[:10] + ops[-10:]  # both wire counts
    profile = Profile()
    init = CellComplex.__dict__["__init__"]
    run.run_pass(wl, env, ops, True, 0, profile)
    metrics = _self_times_sum_to_op_time(profile)
    assert profile.ops == 20 and not profile.missing
    assert metrics["suites.run_checks.calls"] == 1.0
    assert metrics["suites.uncrossed-edge-lemma.false"] == 0.0
    # the wrappers are gone again
    import pseudoline.suites as suites

    assert suites.ALL_CHECKS["counting"] is suites.check_counting
    assert CellComplex.__dict__["__init__"] is init


def test_cli_trace_accounts_for_the_op_time(env):
    wl = wls.WORKLOADS["verify"]
    op = wls.Op(None, 4, ["verify", "--n", "4"])
    profile = Profile()
    _, _, outs = run.run_pass(wl, env, [op], True, 0, profile)
    assert outs[0].code == 0 and wl.check(op, outs[0])
    metrics = _self_times_sum_to_op_time(profile)
    assert metrics["cli.main.calls"] == 1.0
    assert metrics["enumeration.raw_words.words"] == 16.0  # A005118(4)
    assert profile.spans and not list(env.workdir.glob("trace-*.json"))


def test_independent_census_matches_the_package():
    rng = random.Random(5)
    for n in range(3, 9):
        for _ in range(20):
            word = wls.random_word(n, rng)
            d = WiringDiagram(n, word)
            assert wls.cell_signature(n, word)[0] == face_census(CellComplex(d)).tally


def test_independent_sweep_matches_the_package():
    arr, d = build_arrangement(5, (0, 1, 1, 0, 1, 1, 0, 0, 1, 0))
    lines = [(line.slope, line.intercept) for line in arr.lines]
    assert wls.lines_to_swaps(lines) == d.swaps == lines_to_diagram(arr).diagram.swaps


def test_benchmark_json_lists_what_run_reports(capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_spec()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", "verify", "--seed", "1", "--seconds", "0.5",
                         "--trace", str(trace)]) == 0
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0
        assert {k: v["unit"] for k, v in last["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec[section]}


def test_no_result_without_the_package(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    assert run.main(["--workload", "verify", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_compare_refuses_different_kernels():
    def result(kernel):
        meta = {"workload": "checks", "trace": 0, "kernel": kernel}
        return {"meta": meta, "end_to_end": {"wall_s": {"value": 1.0, "unit": "s"}}}

    assert len(compare(result("pure"), result("pure"))) == 2
    with pytest.raises(ValueError, match="kernel"):
        compare(result("pure"), result("compiled"))
