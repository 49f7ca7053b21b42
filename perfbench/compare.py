"""Compare two benchmark results metric by metric.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Each file is a ``result.json`` written by ``run.py``.  Prints each metric of
both runs and the ratio AFTER / BEFORE.  Refuses (exit 2) to compare results
of different workloads, trace modes or sweep kernels: a compiled and a pure
kernel run measure different programs.
"""

from __future__ import annotations

import json
import sys


def load_metrics(result: dict) -> dict[str, tuple[float, str]]:
    section = result.get("per_layer") or result["end_to_end"]
    return {name: (m["value"], m["unit"]) for name, m in section.items()}


def compare(before: dict, after: dict) -> list[str]:
    """Report lines; raises ValueError when the two results are not comparable."""
    for key in ("workload", "trace", "kernel"):
        if before["meta"][key] != after["meta"][key]:
            raise ValueError(f"{key} differs: {before['meta'][key]!r} vs {after['meta'][key]!r}")
    a, b = load_metrics(before), load_metrics(after)
    lines = [f"{'metric':48s} {'before':>14s} {'after':>14s} {'after/before':>12s}"]
    for name in a.keys() & b.keys():
        (va, unit), (vb, _) = a[name], b[name]
        ratio = f"{vb / va:12.3f}" if va else f"{'-':>12s}"
        lines.append(f"{name:48s} {va:14.6g} {vb:14.6g} {ratio} {unit}")
    lines[1:] = sorted(lines[1:])
    return lines


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    before, after = (_load(path) for path in argv)
    try:
        lines = compare(before, after)
    except ValueError as exc:
        print(f"error: results not comparable: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
