"""The benchmark's workloads: seeded inputs, one op, and the check of its output.

Each workload yields its inputs one pass at a time; a pass is the workload's
fixed op sequence.  ``run`` performs one op and returns its raw output;
``check`` judges that output afterwards, outside every timed region.  CLI
ops run ``python -m pseudoline.cli`` in a fresh interpreter, so the
package's in-process caches start empty on every op, as they do for a user.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SHIM = HERE / "shim.py"


@dataclass
class Op:
    key: tuple | None  # the generated input; no two ops of a run may share one
    size: int  # wire count, for per-size latency
    argv: list[str] = field(default_factory=list)  # CLI arguments
    payload: object = None  # in-process input, or the diagram a CLI op reads


@dataclass
class Output:
    code: int
    value: object  # stdout of a CLI op, return value of an in-process op
    trace_file: Path | None = None
    error: str = ""  # stderr of a failed CLI op, or the exception an op raised


class Env:
    """Where ops run: the interpreter, its environment and a scratch directory."""

    def __init__(self, root: Path, workdir: Path):
        self.root = root
        self.workdir = workdir
        self.child_env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONHASHSEED": "0"}
        self.deadline: float | None = None  # perf_counter() time at which CLI ops are killed


def run_cli(env: Env, op: Op, traced: bool, op_id: int) -> Output:
    if traced:
        trace_file = env.workdir / f"trace-{op_id}.json"
        cmd = [sys.executable, str(SHIM), str(trace_file), str(op_id), "--", *op.argv]
    else:
        trace_file = None
        cmd = [sys.executable, "-m", "pseudoline.cli", *op.argv]
    timeout = None if env.deadline is None else max(1.0, env.deadline - perf_counter())
    proc = subprocess.run(cmd, env=env.child_env, cwd=env.root, capture_output=True,
                          text=True, check=False, timeout=timeout)
    return Output(proc.returncode, proc.stdout, trace_file, proc.stderr[-2000:])


def random_word(n: int, rng: random.Random) -> tuple[int, ...]:
    """A random valid swap word: each step picks an admissible track uniformly."""
    perm = list(range(n + 1))
    crossed = set()
    word = []
    for _ in range(n * (n - 1) // 2):
        choices = [t for t in range(1, n)
                   if (min(perm[t], perm[t + 1]), max(perm[t], perm[t + 1])) not in crossed]
        t = rng.choice(choices)
        u, v = perm[t], perm[t + 1]
        crossed.add((min(u, v), max(u, v)))
        perm[t], perm[t + 1] = v, u
        word.append(t)
    return tuple(word)


def cell_signature(n: int, swaps) -> tuple[dict[int, int], list[tuple[int, ...]]]:
    """Isomorphism invariants of a diagram, by a sweep independent of the package.

    Returns the face census (side count -> number of bounded faces) and, per
    crossing, the sizes of its four faces, sorted; an unbounded face with k
    crossings has size -k.  Region r lies between tracks r and r+1; regions
    0 and n are the top and bottom faces.  A swap at track t closes the face
    in region t, opens a new one there, and touches the faces in regions t-1
    and t+1.  A face is bounded when a swap opened it and another closed it.
    """
    region = list(range(n + 1))
    next_face = n + 1
    crossings: dict[int, int] = {}
    opened, closed = set(), set()
    corners = []
    for t in swaps:
        quad = (region[t - 1], region[t], next_face, region[t + 1])
        closed.add(region[t])
        opened.add(next_face)
        region[t] = next_face
        next_face += 1
        for f in quad:
            crossings[f] = crossings.get(f, 0) + 1
        corners.append(quad)
    bounded = opened & closed

    def size(f):
        return crossings[f] if f in bounded else -crossings[f]

    census: dict[int, int] = {}
    for f in bounded:
        census[size(f)] = census.get(size(f), 0) + 1
    return census, sorted(tuple(sorted(map(size, quad))) for quad in corners)


def lines_to_swaps(lines: list[tuple[Fraction, Fraction]]) -> tuple[int, ...]:
    """Swap word of a simple line arrangement, swept left to right.

    Raises ValueError if two lines are parallel or three meet in a point.
    """
    n = len(lines)
    if len({s for s, _ in lines}) != n:
        raise ValueError("two lines share a slope")
    events = []
    for i in range(n):
        for j in range(i + 1, n):
            (si, bi), (sj, bj) = lines[i], lines[j]
            x = (bj - bi) / (si - sj)
            events.append((x, si * x + bi, i, j))
    events.sort()
    if len({(x, y) for x, y, _, _ in events}) != len(events):
        raise ValueError("three lines meet in a point")
    order = sorted(range(n), key=lambda i: lines[i][0])  # top wire at x -> -inf
    pos = {line: p for p, line in enumerate(order)}
    swaps = []
    for _, _, i, j in events:
        lo, hi = sorted((pos[i], pos[j]))
        if hi != lo + 1:
            raise ValueError("crossing lines are not adjacent")
        pos[i], pos[j] = pos[j], pos[i]
        swaps.append(lo + 1)
    return tuple(swaps)


class Workload:
    name = ""
    cli = True

    def passes(self, seed: int, env: Env):
        """Yield the inputs of pass 0, 1, 2, ... for this seed."""
        raise NotImplementedError

    def run(self, env: Env, op: Op, traced: bool, op_id: int) -> Output:
        return run_cli(env, op, traced, op_id)

    def check(self, op: Op, out: Output) -> bool:
        raise NotImplementedError

    def detail(self, ops: list[Op], outs: list[Output]) -> dict:
        return {}


class Verify(Workload):
    """`pseudoline verify --n 5`: the exhaustive check, 768 words, as users run it."""

    name = "verify"

    def passes(self, seed, env):
        while True:
            yield [Op(None, 5, ["verify", "--n", "5", "--jobs", "1"])]

    def check(self, op, out):
        from pseudoline.suites import ALL_CHECKS

        if out.code != 0:
            return False
        status = {}
        checked = 0
        for line in out.value.splitlines():
            parts = line.split()
            if line.startswith("diagrams checked:"):
                checked = int(parts[-1]) if parts[-1].isdigit() else 0
            elif len(parts) == 2:
                status[parts[0]] = parts[1]
        return checked >= 1 and all(status.get(name) == "pass" for name in ALL_CHECKS)


class Dedup(Workload):
    """`pseudoline enumerate --n 5 --dedup --count-only`: canonical forms of 768 words."""

    name = "dedup"

    def passes(self, seed, env):
        while True:
            yield [Op(None, 5, ["enumerate", "--n", "5", "--dedup", "--count-only"])]

    def check(self, op, out):
        return out.code == 0 and out.value.strip() == "6"


CHECKS_PASS = ((6, 200), (7, 100))  # (wire count, words per pass)


class Checks(Workload):
    """`suites.run_checks` in-process on distinct random words at n = 6 and 7."""

    name = "checks"
    cli = False

    def passes(self, seed, env):
        from pseudoline.wiring import validate_wiring

        rng = random.Random(seed)
        seen = set()
        while True:
            ops = []
            for n, count in CHECKS_PASS:
                made = 0
                while made < count:
                    word = random_word(n, rng)
                    key = (n, bytes(word))  # compact: the run keeps every key
                    if key not in seen:
                        seen.add(key)
                        ops.append(Op(key, n, payload=validate_wiring(n, word)))
                        made += 1
            yield ops

    def run(self, env, op, traced, op_id):
        from pseudoline.suites import run_checks  # looked up per op: a traced pass wraps it

        return Output(0, run_checks(op.payload))

    def check(self, op, out):
        from pseudoline.suites import ALL_CHECKS

        return (isinstance(out.value, dict) and set(out.value) == set(ALL_CHECKS)
                and all(v is True for v in out.value.values()))


REALIZE_N = 12  # wires per realize input
REALIZE_M = 12  # inputs are cut from self-dual-necklace arrangements of 2 * REALIZE_M lines
REALIZE_OPS = 4  # ops per pass


class Realize(Workload):
    """`pseudoline realize FILE` on seeded diagrams from the necklace construction.

    Each input keeps the line pairs of REALIZE_N / 2 seeded directions out of
    a seeded self-dual-necklace arrangement of 2 * REALIZE_M lines.  Every
    line still carries an edge of the central face, so the input is in Im,
    and it is one of the 5 necklace classes of 12 lines.  Building 12 lines
    directly gives at most 64 distinct words, too few for a run of distinct
    inputs; cutting from 24 lines gives millions of words of those classes.
    """

    name = "realize"

    def passes(self, seed, env):
        from pseudoline.analysis import is_in_Im
        from pseudoline.lines import lines_to_diagram
        from pseudoline.necklace import build_arrangement
        from pseudoline.wiring import induced_subarrangement

        rng = random.Random(seed)
        m = REALIZE_M
        seen = set()
        pass_no = 0
        while True:
            ops = []
            for i in range(REALIZE_OPS):
                while True:
                    half = tuple(rng.randint(0, 1) for _ in range(m))
                    arr, d = build_arrangement(m, half + tuple(1 - b for b in half))
                    wire = lines_to_diagram(arr).wire_of_line
                    dirs = rng.sample(range(m), REALIZE_N // 2)
                    keep = [wire[j] for j in dirs] + [wire[j + m] for j in dirs]
                    sub = induced_subarrangement(d, keep).diagram
                    if sub.swaps not in seen and is_in_Im(sub).member:
                        break
                swaps = sub.swaps
                seen.add(swaps)
                path = env.workdir / f"realize-{pass_no}-{i}.txt"
                path.write_text(f"{REALIZE_N}\n{' '.join(map(str, swaps))}\n")
                ops.append(Op((REALIZE_N, swaps), REALIZE_N, ["realize", str(path)], payload=swaps))
            pass_no += 1
            yield ops

    def check(self, op, out):
        try:
            lines = _parse_lines(out.value)
        except (ValueError, KeyError, TypeError, ZeroDivisionError):
            return False
        if out.code != 0 or len(lines) != op.size:
            return False
        try:
            swaps = lines_to_swaps(lines)
        except ValueError:
            return False
        return cell_signature(op.size, swaps) == cell_signature(op.size, op.payload)

    def detail(self, ops, outs):
        bits = 0
        for op, out in zip(ops, outs):
            if self.check(op, out):
                for slope, intercept in _parse_lines(out.value):
                    for f in (slope, intercept):
                        bits = max(bits, f.numerator.bit_length(), f.denominator.bit_length())
        return {"coord_bits_max": bits}


def _parse_lines(text: str) -> list[tuple[Fraction, Fraction]]:
    data = json.loads(text)
    return [(Fraction(e["slope"]), Fraction(e["intercept"])) for e in data]


WORKLOADS = {w.name: w for w in (Verify(), Checks(), Dedup(), Realize())}
