"""Run one pseudoline CLI command with the per-layer tracer installed.

    python perfbench/shim.py TRACE_JSON OP_ID -- COMMAND [ARGS...]

Installs the wrappers from ``tracer.py``, calls ``pseudoline.cli.main`` with
the arguments after ``--``, writes the tracer's totals and its first spans to
TRACE_JSON, and exits with the command's exit code.
"""

import json
import sys

from tracer import Tracer

SHIM_SPAN_CAP = 2000  # spans kept per op; totals cover every span


def main() -> int:
    if len(sys.argv) < 5 or sys.argv[3] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[4:]
    import pseudoline.cli

    tracer = Tracer(op=op, span_cap=SHIM_SPAN_CAP)
    tracer.install()
    try:
        return pseudoline.cli.main(argv)
    finally:
        with open(out, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
