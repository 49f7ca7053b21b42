"""Command-line interface.

Subcommands: analyze, enumerate, necklace, realize, render, verify.
Exit codes: 0 success, 1 verification failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, TypeVar

from .analysis import report_json
from .enumeration import MAX_N, enumerate_simple, is_normal, raw_words
from .errors import InputError, PseudolineError
from .lines import Line, LineArrangement, frac_str, parse_frac
from .necklace import build_arrangement, enumerate_selfdual, q_formula
from .render import render_diagram, render_lines
from .stretch import realize_im
from .suites import ALL_CHECKS, run_checks
from .wiring import WiringDiagram, format_diagram, parse_diagram

__all__ = ["main"]

T = TypeVar("T")


def _load(path: str, parse: Callable[[str], T]) -> T:
    """Read a file ('-' = stdin) and parse it.

    A file that cannot be read, or content that does not parse (JSON nested
    too deep for the parser's recursion included), is an InputError, which the CLI reports in one line with exit code 2.
    """
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path) as fh:
                text = fh.read()
        return parse(text)
    except (OSError, ValueError, TypeError, ZeroDivisionError, RecursionError) as exc:
        raise InputError(f"{path}: {exc}") from exc


def _read_diagram(path: str) -> WiringDiagram:
    return _load(path, parse_diagram)


def _arrangement_json(arr: LineArrangement) -> str:
    # json.dumps' text; frac_str yields only '-', digits and '/', nothing to escape
    return "[" + ", ".join(
        f'{{"slope": "{frac_str(l.slope)}", "intercept": "{frac_str(l.intercept)}"}}'
        for l in arr.lines) + "]"


def _parse_arrangement(text: str) -> LineArrangement:
    import json

    entries = json.loads(text)
    if not isinstance(entries, list):
        raise ValueError("expected a JSON list of lines")
    for i, e in enumerate(entries):
        if not (isinstance(e, dict) and {"slope", "intercept"} <= e.keys()):
            raise ValueError(f"entry {i} of the list is not a {{slope, intercept}} object")
    return LineArrangement(
        tuple(Line(parse_frac(e["slope"]), parse_frac(e["intercept"])) for e in entries)
    )


def cmd_analyze(args) -> int:
    print(report_json(_read_diagram(args.file)))
    return 0


def cmd_enumerate(args) -> int:
    if args.count_only:  # the one mode main admits with --jobs J > 1
        print(sum(_map_shards(args.jobs, _count, args.n, args.filter, args.dedup)))
        return 0
    for d in enumerate_simple(args.n, filter=args.filter, dedup=args.dedup):
        print(" ".join(map(str, d.swaps)))
    return 0


def _count(n: int, filter: str | None, dedup: bool, prefix: tuple[int, ...]) -> int:
    return sum(1 for _ in enumerate_simple(n, filter, dedup, prefix))


def _map_shards(jobs: int, fn: Callable[..., T], n: int, *args) -> list[T]:
    """``fn(n, *args, prefix)`` per shard of the word walk, in prefix order.

    There is one shard per first letter (for n = 1, which has no letter, the
    empty prefix), at every job count, so that a result never depends on it
    (``verify`` stops each shard at its first failure).  More than one job
    runs the shards in min(jobs, shards) processes.
    """
    shards = [(t,) for t in range(1, n)] or [()]
    if jobs == 1:
        return [fn(n, *args, p) for p in shards]
    from multiprocessing import Pool

    with Pool(min(jobs, len(shards))) as pool:
        return pool.starmap(fn, [(n, *args, p) for p in shards])


def cmd_necklace(args) -> int:
    if args.count:
        print(q_formula(args.m))
        return 0
    if args.list:
        for beads in enumerate_selfdual(args.m):
            print("".join(map(str, beads)))
        return 0
    try:
        arr, d = build_arrangement(args.m, args.build)
    except ValueError as exc:  # m < 2, or beads that are not a self-dual word of length 2m
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(_arrangement_json(arr))
    print(format_diagram(d), end="")
    return 0


def cmd_realize(args) -> int:
    # realize_im ends with an exact round-trip; a failed one raises, exit 1
    arr = realize_im(_read_diagram(args.file))
    print(_arrangement_json(arr))
    return 0


def cmd_render(args) -> int:
    if args.lines:
        print(render_lines(_load(args.lines, _parse_arrangement)), end="")
    else:
        print(render_diagram(_read_diagram(args.file)), end="")
    return 0


def _verify_prefix(n: int, prefix: tuple[int, ...]) -> tuple[int, tuple[int, ...] | None, str]:
    """Walk every word; run the checks once per arrangement, on its normal word."""
    count = 0
    for word in raw_words(n, prefix=prefix):
        if not is_normal(word):
            continue
        count += 1
        results = run_checks(WiringDiagram(n, word))
        for name, ok in results.items():
            if not ok:
                return count, word, name
    return count, None, ""


def cmd_verify(args) -> int:
    n = args.n
    parts = _map_shards(args.jobs, _verify_prefix, n)
    total = sum(p[0] for p in parts)
    failures = [(word, name) for _, word, name in parts if word is not None]
    for name in ALL_CHECKS:
        status = "FAIL" if any(nm == name for _, nm in failures) else "pass"
        print(f"{name:28s} {status}")
    print(f"diagrams checked: {total}")
    if failures:
        word, name = failures[0]
        print(f"counterexample ({name}): n={n} swaps={' '.join(map(str, word))}")
        return 1
    return 0


def _positive_int(text: str, hi: int | None = None) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1 or (hi is not None and value > hi):
        bound = "a positive integer" if hi is None else f"an integer in [1, {hi}]"
        raise argparse.ArgumentTypeError(f"must be {bound}, got {text!r}")
    return value


def _wire_count(text: str) -> int:
    return _positive_int(text, MAX_N)


def _bitstring(text: str) -> tuple[int, ...]:
    if set(text) - {"0", "1"}:
        raise argparse.ArgumentTypeError(f"must be a string of 0s and 1s, got {text!r}")
    return tuple(int(ch) for ch in text)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="pseudoline")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="JSON face-analysis report for a diagram file")
    p.add_argument("file", help="diagram file in the text format ('-' for stdin)")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("enumerate", help="enumerate valid diagrams for small n")
    p.add_argument("--n", type=_wire_count, required=True)
    p.add_argument("--filter", choices=["one-ge5", "im"])
    p.add_argument("--dedup", action="store_true")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("necklace", help="self-dual necklaces and their arrangements")
    p.add_argument("--m", type=_positive_int, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--count", action="store_true")
    g.add_argument("--list", action="store_true")
    g.add_argument("--build", type=_bitstring, metavar="BITSTRING")
    p.set_defaults(fn=cmd_necklace)

    p = sub.add_parser("realize", help="stretch a diagram into straight lines")
    p.add_argument("file")
    p.set_defaults(fn=cmd_realize)

    p = sub.add_parser("render", help="SVG output")
    p.add_argument("file", nargs="?", help="diagram file (omit with --lines)")
    p.add_argument("--lines", help="line-arrangement JSON file")
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("verify", help="run all invariant suites over an enumeration")
    p.add_argument("--n", type=_wire_count, required=True)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.set_defaults(fn=cmd_verify)

    args = ap.parse_args(argv)
    if args.command == "render" and bool(args.lines) == bool(args.file):
        ap.error("render needs exactly one of a diagram file and --lines")
    if args.command == "enumerate" and args.jobs > 1 and not args.count_only:
        ap.error("enumerate --jobs J > 1 needs --count-only")
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PseudolineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
