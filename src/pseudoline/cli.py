"""Command-line interface.

Subcommands: analyze, enumerate, necklace, realize, render, verify.
Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from multiprocessing import Pool

from .analysis import report_json
from .enumeration import MAX_N, enumerate_simple, raw_words
from .errors import ParseError, PseudolineError
from .lines import Line, LineArrangement, frac_str, lines_to_diagram, parse_frac
from .necklace import build_arrangement, enumerate_selfdual, q_formula
from .render import render_diagram, render_lines
from .isomorphism import isomorphic
from .stretch import realize_im
from .suites import ALL_CHECKS, run_checks
from .wiring import WiringDiagram, format_diagram, parse_diagram

__all__ = ["main"]


def _read_diagram(path: str) -> WiringDiagram:
    text = sys.stdin.read() if path == "-" else open(path).read()
    return parse_diagram(text)


def _arrangement_json(arr: LineArrangement) -> str:
    return json.dumps(
        [{"slope": frac_str(l.slope), "intercept": frac_str(l.intercept)} for l in arr.lines]
    )


def _load_arrangement(path: str) -> LineArrangement:
    data = json.loads(open(path).read())
    return LineArrangement(
        tuple(Line(parse_frac(e["slope"]), parse_frac(e["intercept"])) for e in data)
    )


def cmd_analyze(args) -> int:
    print(report_json(_read_diagram(args.file)))
    return 0


def cmd_enumerate(args) -> int:
    if args.count_only and args.jobs > 1 and not args.dedup and args.filter is None:
        with Pool(args.jobs) as pool:
            parts = pool.starmap(_count_prefix, [(args.n, p) for p in _shards(args.n)])
        print(sum(parts))
        return 0
    stream = enumerate_simple(args.n, filter=args.filter, dedup=args.dedup)
    if args.count_only:
        print(stream.count())
        return 0
    for d in stream:
        print(" ".join(map(str, d.swaps)))
    return 0


def _shards(n: int) -> list[tuple[int, ...]]:
    """Word prefixes that split the enumeration: one per first letter.

    For n = 1 there is no letter, and the one shard is the empty prefix.
    """
    return [(t,) for t in range(1, n)] or [()]


def _count_prefix(n: int, prefix: tuple[int, ...]) -> int:
    return sum(1 for _ in raw_words(n, prefix=prefix))


def cmd_necklace(args) -> int:
    if args.count:
        print(q_formula(args.m))
        return 0
    if args.list:
        for beads in enumerate_selfdual(args.m):
            print("".join(map(str, beads)))
        return 0
    if len(args.build) != 2 * args.m:
        print(f"error: bitstring must have {2 * args.m} beads", file=sys.stderr)
        return 2
    arr, d = build_arrangement(args.m, args.build)
    print(_arrangement_json(arr))
    print(format_diagram(d), end="")
    return 0


def cmd_realize(args) -> int:
    d = _read_diagram(args.file)
    arr = realize_im(d, seed=args.seed)
    if not isomorphic(lines_to_diagram(arr).diagram, d):
        print("error: round-trip verification failed", file=sys.stderr)
        return 1
    print(_arrangement_json(arr))
    return 0


def cmd_render(args) -> int:
    if args.lines:
        print(render_lines(_load_arrangement(args.lines)), end="")
    else:
        print(render_diagram(_read_diagram(args.file)), end="")
    return 0


def _verify_prefix(n: int, prefix: tuple[int, ...]) -> tuple[int, tuple[int, ...] | None, str]:
    count = 0
    for word in raw_words(n, prefix=prefix):
        count += 1
        results = run_checks(WiringDiagram(n, word))
        for name, ok in results.items():
            if not ok:
                return count, word, name
    return count, None, ""


def cmd_verify(args) -> int:
    n = args.n
    prefixes = _shards(n)
    if args.jobs > 1:
        with Pool(args.jobs) as pool:
            parts = pool.starmap(_verify_prefix, [(n, p) for p in prefixes])
    else:
        parts = [_verify_prefix(n, p) for p in prefixes]
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


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


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
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--filter", choices=["one-ge5", "im"])
    p.add_argument("--dedup", action="store_true")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
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
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_realize)

    p = sub.add_parser("render", help="SVG output")
    p.add_argument("file", nargs="?", help="diagram file (omit with --lines)")
    p.add_argument("--lines", help="line-arrangement JSON file")
    p.set_defaults(fn=cmd_render)

    p = sub.add_parser("verify", help="run all invariant suites over an enumeration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=cmd_verify)

    args = ap.parse_args(argv)
    if args.command == "render" and not args.lines and not args.file:
        ap.error("render needs a diagram file or --lines")
    if args.command in ("enumerate", "verify") and not 1 <= args.n <= MAX_N:
        ap.error(f"--n must be in [1, {MAX_N}]")
    try:
        return args.fn(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PseudolineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
