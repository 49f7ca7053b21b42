"""Per-layer tracing by wrapping the package's public functions from outside.

``Tracer.install()`` replaces each function in ``LAYERS`` with a timing
wrapper in every ``pseudoline`` module namespace that holds it, in the
``suites.ALL_CHECKS`` dict, and on ``CellComplex.__init__``; ``restore()``
puts the originals back.  Each wrapped call is a span (name, start, end,
parent, op id).  Self time is a span's duration minus the time its child
spans cover, aggregated on the fly; raw spans are kept only up to a cap so
memory stays bounded.

Work done in a lazy ``cached_property`` of ``CellComplex`` is not a wrapped
call, so it lands in the self time of whichever wrapped caller first touches
it.  Tiny hot helpers (``lines.crossing_point``, the ``CellComplex`` accessors)
are not wrapped: the wrapper would cost more than they do.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs wrapped as layers; module is a pseudoline submodule.
LAYERS = [
    ("enumeration", "raw_words"),
    ("wiring", "induced_subarrangement"),
    ("wiring", "validate_wiring"),
    ("sweep", "sweep_arrays"),
    ("sweep", "census_sides"),
    ("cells", "CellComplex"),
    ("analysis", "find_unique_ge5"),
    ("analysis", "critical_edges"),
    ("analysis", "criticality_k"),
    ("analysis", "is_in_Im"),
    ("analysis", "face_census"),
    ("analysis", "triangle_adjacency"),
    ("analysis", "verify_counting_theorem"),
    ("suites", "run_checks"),
    ("isomorphism", "canonical_form"),
    ("isomorphism", "isomorphic"),
    ("isomorphism", "find_isomorphism"),
    ("lines", "lines_to_diagram"),
    ("necklace", "build_arrangement"),
    ("necklace", "enumerate_selfdual"),
    ("stretch", "realize_im"),
    ("stretch", "select_insertion_frame"),
    ("cli", "main"),
]
GENERATORS = {"enumeration.raw_words"}  # self time is the time inside next()
CHECK_NAMES = [
    "cell-formula", "counting", "triangle-per-wire", "criticality-bound",
    "im-structure", "no-shared-triangle-edge", "triangle-region-lemma",
    "uncrossed-edge-lemma",
]
SPAN_CAP = 20000


class Tracer:
    def __init__(self, op: int = 0, span_cap: int = SPAN_CAP):
        self.op = op
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.false: dict[str, int] = defaultdict(int)
        self.words = 0  # items yielded by wrapped generators
        self.cf_calls = 0
        self.cf_repeats = 0  # canonical_form calls on a key already seen in the op
        self.top_s = 0.0  # summed duration of spans with no parent
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self.missing: list[str] = []
        self._span_cap = span_cap
        self._seen: set = set()
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        self._seen.clear()

    def _enter(self, name: str) -> None:
        self._stack.append([name, self._next_id, 0.0, perf_counter()])
        self._next_id += 1

    def _exit(self) -> None:
        t1 = perf_counter()
        name, sid, child, t0 = self._stack.pop()
        dur = t1 - t0
        self.self_s[name] += dur - child
        self.incl_s[name] += dur
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            pid = parent[1]
        else:
            self.top_s += dur
            pid = None
        if len(self.spans) < self._span_cap:
            self.spans.append((self.op, sid, name, t0, t1, pid))
        else:
            self.spans_dropped += 1

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        enter, exit_, calls = self._enter, self._exit, self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return wrapper

    def _wrap_check(self, name: str, fn):
        inner = self._wrap(name, fn)
        false = self.false

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ok = inner(*args, **kwargs)
            if not ok:
                false[name] += 1
            return ok

        return wrapper

    def _wrap_canonical(self, name: str, fn):
        inner = self._wrap(name, fn)

        @functools.wraps(fn)
        def wrapper(d, *args, **kwargs):
            key = (d.n, d.swaps)
            self.cf_calls += 1
            if key in self._seen:
                self.cf_repeats += 1
            self._seen.add(key)
            return inner(d, *args, **kwargs)

        return wrapper

    def _wrap_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[name] += 1
            it = fn(*args, **kwargs)

            def timed():
                while True:
                    tracer._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._exit()
                    tracer.words += 1
                    yield item

            return timed()

        return wrapper

    # -- install / restore --------------------------------------------------

    def install(self) -> None:
        import pseudoline.cli  # noqa: F401  (imports every layer on a workload path)

        mods = [m for key, m in list(sys.modules.items())
                if m is not None and (key == "pseudoline" or key.startswith("pseudoline."))]
        for module, func in LAYERS:
            name = f"{module}.{func}"
            mod = sys.modules.get(f"pseudoline.{module}")
            orig = getattr(mod, func, None)
            if orig is None:
                self.missing.append(name)
                continue
            if isinstance(orig, type):
                self._patch(orig, "__init__", self._wrap(name, orig.__init__))
                continue
            if name in GENERATORS:
                wrapped = self._wrap_generator(name, orig)
            elif name == "isomorphism.canonical_form":
                wrapped = self._wrap_canonical(name, orig)
            else:
                wrapped = self._wrap(name, orig)
            self._patch_everywhere(mods, orig, wrapped)
        suites = sys.modules["pseudoline.suites"]
        checks = suites.ALL_CHECKS
        self.missing += [f"suites.{c}" for c in CHECK_NAMES if c not in checks]
        for key, orig in list(checks.items()):
            wrapped = self._wrap_check(f"suites.{key}", orig)
            self._patches.append((checks, key, orig, True))
            checks[key] = wrapped
            self._patch_everywhere(mods, orig, wrapped)

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr), False))
        setattr(obj, attr, value)

    def _patch_everywhere(self, mods, orig, wrapped) -> None:
        for m in mods:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    self._patch(m, attr, wrapped)

    def restore(self) -> None:
        for obj, key, orig, is_item in reversed(self._patches):
            if is_item:
                obj[key] = orig
            else:
                setattr(obj, key, orig)
        self._patches.clear()

    # -- export -------------------------------------------------------------

    def dump(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "false": dict(self.false),
            "words": self.words,
            "cf_calls": self.cf_calls,
            "cf_repeats": self.cf_repeats,
            "top_s": self.top_s,
            "spans": self.spans,
            "spans_dropped": self.spans_dropped,
            "missing": self.missing,
        }


def layer_names() -> list[str]:
    names = []
    for module, func in LAYERS:
        names.append(f"{module}.{func}")
        if (module, func) == ("suites", "run_checks"):
            names += [f"suites.{check}" for check in CHECK_NAMES]
    return names


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(metric, unit, better) for every per-layer metric, in report order."""
    out = []
    for name in layer_names():
        out.append((f"{name}.calls", "calls/op", "lower"))
        if name in GENERATORS:
            out.append((f"{name}.words", "words/op", "lower"))
        out.append((f"{name}.self_s", "s/op", "lower"))
        if name.startswith("suites."):
            # checks do not recurse, so inclusive time is well defined
            out.append((f"{name}.incl_s", "s/op", "lower"))
            if name != "suites.run_checks":
                out.append((f"{name}.false", "count/op", "lower"))
        if name == "isomorphism.canonical_form":
            out.append((f"{name}.repeat_ratio", "ratio", "lower"))
    out += [
        ("other.self_s", "s/op", "lower"),
        ("trace.op_s", "s/op", "lower"),
        ("trace.overhead", "ratio", "lower"),
    ]
    return out


class Profile:
    """Per-layer totals over many traced ops, merged from tracer dumps."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.false: dict[str, int] = defaultdict(int)
        self.words = self.cf_calls = self.cf_repeats = self.ops = 0
        self.op_s = self.top_s = 0.0
        self.spans: list = []
        self.spans_dropped = 0
        self.missing: set[str] = set()

    def add(self, dump: dict, ops: int, op_s: float) -> None:
        """Merge a dump that covers ``ops`` ops taking ``op_s`` seconds in all."""
        for key in ("calls", "self_s", "incl_s", "false"):
            total = getattr(self, key)
            for name, v in dump[key].items():
                total[name] += v
        self.words += dump["words"]
        self.cf_calls += dump["cf_calls"]
        self.cf_repeats += dump["cf_repeats"]
        self.top_s += dump["top_s"]
        self.ops += ops
        self.op_s += op_s
        room = SPAN_CAP - len(self.spans)
        self.spans.extend(dump["spans"][:max(room, 0)])
        self.spans_dropped += dump["spans_dropped"] + max(len(dump["spans"]) - room, 0)
        self.missing.update(dump["missing"])

    def other_s(self) -> float:
        """Traced op time outside every wrapped span (process start, harness)."""
        return self.op_s - self.top_s

    def metrics(self, overhead: float) -> dict[str, float]:
        ops = max(self.ops, 1)
        out = {}
        for metric, _, _ in per_layer_spec():
            name, _, field = metric.rpartition(".")
            if field == "calls":
                v = self.calls.get(name, 0) / ops
            elif field == "self_s":
                v = self.other_s() / ops if name == "other" else self.self_s.get(name, 0.0) / ops
            elif field == "incl_s":
                v = self.incl_s.get(name, 0.0) / ops
            elif field == "false":
                v = self.false.get(name, 0) / ops
            elif field == "words":
                v = self.words / ops
            elif field == "repeat_ratio":
                v = self.cf_repeats / self.cf_calls if self.cf_calls else 0.0
            elif metric == "trace.op_s":
                v = self.op_s / ops
            else:
                v = overhead
            out[metric] = v
        return out
