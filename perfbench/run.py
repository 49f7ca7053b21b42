"""Benchmark of the pseudoline package, driven from outside through its CLI
and public functions.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a repository checkout; it imports the package from
``src/``.  It sets up the workload several times (seeded inputs plus one cold
interpreter importing ``pseudoline.cli``) and reports the median, then runs
passes of the workload's fixed op sequence, one op at a time in one thread,
until S seconds have passed.  Every op's output is checked after its pass,
outside the timed region.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  With ``--trace 1`` each pass runs twice on the same
inputs, untraced and then traced, and the last line holds the per-layer
metrics (per-op means from ``tracer.py``) and the tracing overhead.  Earlier
lines summarise the run with sample counts; the full result, with run
metadata, goes to ``.perfbench-run/<workload>-trace<0|1>/result.json`` and
the first spans to ``spans.jsonl`` beside it.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracer import Profile, Tracer, per_layer_spec
from workloads import WORKLOADS, Env, Output

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5
OP_GRACE_S = 120  # a CLI op still running this long after --seconds is killed and failed
NOTES = [
    "no waiting metrics: every op runs alone in one thread and the CLI runs with --jobs 1",
    "work in lazy CellComplex cached_property attributes lands in the self time of "
    "the wrapped caller that first touches it",
    "other.self_s is traced op time outside every wrapped span: for CLI ops it holds "
    "interpreter start, imports and tracer set-up",
]


class DuplicateInput(RuntimeError):
    """Two ops of one run got the same input, so a cache could serve the second."""


def git_rev(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cold_import(env) -> None:
    subprocess.run([sys.executable, "-c", "import pseudoline.cli"], env=env.child_env,
                   cwd=env.root, check=True)


def setup(wl, seed: int, env):
    """Set up SETUP_REPEATS times; return the set-up times and the last input stream."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        stream = wl.passes(seed, env)
        first = next(stream)
        cold_import(env)
        times.append(perf_counter() - t0)
    return times, first, stream


class Run:
    """What the measured passes produced."""

    def __init__(self):
        self.walls: list[float] = []  # untraced pass wall times
        self.traced_walls: list[float] = []
        self.lat: list[float] = []  # untraced op latencies
        self.attempted = 0
        self.failed = 0
        self.first_failure = ""
        self.detail: dict = {}


def guard_distinct(ops, used: set) -> None:
    for op in ops:
        if op.key is None:
            continue
        if op.key in used:
            raise DuplicateInput(f"input {op.key!r} occurs twice in one run")
        used.add(op.key)


def run_pass(wl, env, ops, traced: bool, op_base: int, profile) -> tuple[float, list, list]:
    """Run the ops one at a time; return the pass wall time, latencies and outputs."""
    tracer = None
    if traced and not wl.cli:
        tracer = Tracer()
        tracer.install()
    lat, outs = [], []
    try:
        t0 = perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.begin_op(op_base + i)
            a = perf_counter()
            try:
                out = wl.run(env, op, traced, op_base + i)
            except Exception as exc:  # an op that raises is a failed op
                out = Output(-1, None, error=f"{type(exc).__name__}: {exc}")
            lat.append(perf_counter() - a)
            outs.append(out)
        wall = perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        profile.add(tracer.dump(), len(ops), sum(lat))
    elif traced:
        for out, t in zip(outs, lat):
            if out.trace_file is not None and out.trace_file.is_file():
                profile.add(json.loads(out.trace_file.read_text()), 1, t)
                out.trace_file.unlink()
    return wall, lat, outs


def record(wl, run: Run, ops, outs) -> None:
    for op, out in zip(ops, outs):
        run.attempted += 1
        if not wl.check(op, out):
            run.failed += 1
            if not run.first_failure:
                run.first_failure = f"{op.argv or op.key}: code {out.code} {out.error}".strip()
    for key, value in wl.detail(ops, outs).items():
        run.detail[key] = max(run.detail.get(key, value), value)


def measure(wl, env, first, stream, seconds: float, trace: bool, profile) -> Run:
    run = Run()
    used: set = set()
    ops = first
    op_base = 0
    t_end = perf_counter() + seconds
    env.deadline = t_end + OP_GRACE_S
    while True:
        guard_distinct(ops, used)
        wall, lat, outs = run_pass(wl, env, ops, False, op_base, profile)
        run.walls.append(wall)
        run.lat.extend(lat)
        record(wl, run, ops, outs)
        if trace:
            # same inputs again, traced, so the overhead ratio compares like with like
            wall, _, outs = run_pass(wl, env, ops, True, op_base, profile)
            run.traced_walls.append(wall)
            record(wl, run, ops, outs)
        op_base += len(ops)
        if perf_counter() >= t_end:
            return run
        ops = next(stream)


def peak_rss_mb(cli: bool) -> float:
    who = resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "pseudoline" / "__init__.py").is_file():
        print(f"error: no package sources at {src / 'pseudoline'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    wl = WORKLOADS[args.workload]
    compileall.compile_dir(str(src), quiet=1)  # the build: bytecode for every op's interpreter
    import pseudoline
    import pseudoline.cli  # noqa: F401

    workdir = ROOT / ".perfbench-run" / f"{wl.name}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = Env(ROOT, workdir)
    meta = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "kernel": getattr(pseudoline, "KERNEL", "pure"), "python": platform.python_version(),
        "nproc": os.cpu_count(), "git_rev": git_rev(ROOT),
    }

    setup_times, first, stream = setup(wl, args.seed, env)
    profile = Profile()
    try:
        run = measure(wl, env, first, stream, args.seconds, bool(args.trace), profile)
    except DuplicateInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rss = peak_rss_mb(wl.cli)

    lat_ms = [t * 1000 for t in run.lat]
    n_ops, n_passes = len(lat_ms), len(run.walls)
    summary = {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s", "samples": len(setup_times)},
        "wall_s": {"value": statistics.median(run.walls), "unit": "s", "samples": n_passes},
        "op_p50_ms": {"value": statistics.median(lat_ms), "unit": "ms", "samples": n_ops},
        "peak_rss_mb": {"value": rss, "unit": "MiB", "samples": 1},
    }
    extra = {"fail_ratio": run.failed / run.attempted}
    if n_ops >= 1000:  # at least ten ops beyond the 99th percentile
        extra["op_p99_ms"] = statistics.quantiles(lat_ms, n=100)[98]
    extra.update(run.detail)
    sizes = sorted({op.size for op in first})
    result = {"meta": meta, "end_to_end": summary, "extra": extra, "notes": NOTES,
              "ops_per_pass": len(first), "sizes": sizes, "first_failure": run.first_failure,
              "pass_walls_s": run.walls, "op_latencies_ms": lat_ms}

    print(f"# workload={wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"kernel={meta['kernel']} python={meta['python']} nproc={meta['nproc']} "
          f"rev={meta['git_rev'][:12]}")
    if args.trace:
        overhead = sum(run.traced_walls) / sum(run.walls)
        metrics = profile.metrics(overhead)
        units = {name: unit for name, unit, _ in per_layer_spec()}
        out = {name: {"value": v, "unit": units[name]} for name, v in metrics.items()}
        result.update(per_layer=out, traced_ops=profile.ops, missing_layers=sorted(profile.missing),
                      spans_kept=len(profile.spans), spans_dropped=profile.spans_dropped)
        print(f"# traced {profile.ops} ops; overhead {overhead:.3f} "
              f"(traced / untraced pass wall, {len(run.walls)} pass pairs)")
        top = sorted((v["value"], k) for k, v in out.items() if k.endswith(".self_s"))
        for v, k in reversed(top[-12:]):
            print(f"#   {k:44s} {v * 1000:10.4f} ms/op")
        with open(workdir / "spans.jsonl", "w") as fh:
            for span in profile.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        out = {k: {"value": v["value"], "unit": v["unit"]} for k, v in summary.items()}
        for k, v in summary.items():
            print(f"#   {k:12s} {v['value']:12.4f} {v['unit']:3s} (n={v['samples']})")
        for k, v in extra.items():
            print(f"#   {k:12s} {v:12.4f}")
    print(f"# {NOTES[0]}")
    if run.first_failure:
        print(f"# first failure: {run.first_failure}")
    (workdir / "result.json").write_text(json.dumps(result, indent=1))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
