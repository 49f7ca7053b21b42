"""Wiring diagrams: the combinatorial encoding of a simple Euclidean arrangement.

A diagram has ``n`` wires, numbered 1..n top to bottom at the far left, and a
sequence of n(n-1)/2 swaps.  Each swap names a track position t (1-based,
1 <= t <= n-1) and crosses the two wires currently at positions t and t+1.
One swap per step keeps the arrangement simple by construction: no three
wires ever meet at a point.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import (
    BadTrack,
    DoubleCross,
    EmptySubset,
    ParseError,
    WrongLength,
)

__all__ = [
    "WiringDiagram",
    "validate_wiring",
    "induced_subarrangement",
    "InducedResult",
    "parse_diagram",
    "format_diagram",
]


class WiringDiagram(NamedTuple):
    """A validated wiring diagram.  Construct via :func:`validate_wiring`."""

    n: int
    swaps: tuple[int, ...]

    @property
    def num_steps(self) -> int:
        return self.n * (self.n - 1) // 2

    def crossing_pairs(self) -> list[tuple[int, int]]:
        """Per step, the wire pair that crosses, as (upper, lower) before the swap."""
        perm = list(range(1, self.n + 1))
        out = []
        for t in self.swaps:
            u, v = perm[t - 1], perm[t]
            out.append((u, v))
            perm[t - 1], perm[t] = v, u
        return out

    def local_sequences(self) -> dict[int, tuple[int, ...]]:
        """Per wire, the other wires in the order it crosses them, left to right."""
        seq: dict[int, list[int]] = {w: [] for w in range(1, self.n + 1)}
        for u, v in self.crossing_pairs():
            seq[u].append(v)
            seq[v].append(u)
        return {w: tuple(s) for w, s in seq.items()}


def validate_wiring(n: int, swaps) -> WiringDiagram:
    """Check a swap sequence and return the immutable diagram.

    Raises WrongLength, BadTrack, or DoubleCross.  A sequence of the right
    length in which no pair crosses twice necessarily crosses every pair
    exactly once and ends in reversed wire order.  The wires start in label
    order, so until a pair crosses twice, u over v has crossed exactly when
    u > v: no set of crossed pairs is needed.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    swaps = tuple(map(int, swaps))
    expected = n * (n - 1) // 2
    if len(swaps) != expected:
        raise WrongLength(n, expected, len(swaps))
    perm = list(range(1, n + 1))
    for step, t in enumerate(swaps, start=1):
        if not 1 <= t <= n - 1:
            raise BadTrack(t, n, step)
        u, v = perm[t - 1], perm[t]
        if u > v:
            raise DoubleCross((v, u), step)
        perm[t - 1], perm[t] = v, u
    assert perm == list(range(n, 0, -1))
    return WiringDiagram(n, swaps)


class InducedResult(NamedTuple):
    """Induced subarrangement, and per child step the parent step of its
    crossing.  Child wire i is the i-th smallest kept wire."""

    diagram: WiringDiagram
    parent_step: tuple[int, ...]


def induced_subarrangement(d: WiringDiagram, keep) -> InducedResult:
    """Restrict ``d`` to the wires in ``keep``.

    The child swap sequence is the subsequence of crossings between kept
    wires, in order, each at the track of its upper wire among the kept
    wires.  That track changes only when two kept wires cross, so it is
    swapped there: O(n^2) per call.  Each kept pair crosses once: no check.
    """
    keep = sorted(set(keep))
    if not keep:
        raise EmptySubset("keep must be a nonempty wire subset")
    bad = [w for w in keep if not 1 <= w <= d.n]
    if bad:
        raise ValueError(f"unknown wires: {bad}")
    track = [0] * (d.n + 1)  # per wire: its track among the kept wires, 0 if dropped
    for i, w in enumerate(keep, start=1):
        track[w] = i
    perm = list(range(d.n + 1))  # perm[t]: the wire at track t
    sub_swaps, parent_step = [], []
    for step, t in enumerate(d.swaps):
        u, v = perm[t], perm[t + 1]
        perm[t], perm[t + 1] = v, u
        if track[u] and track[v]:
            # u sits directly above v, so also adjacent among kept wires
            sub_swaps.append(track[u])
            parent_step.append(step)
            track[u], track[v] = track[v], track[u]
    return InducedResult(WiringDiagram(len(keep), tuple(sub_swaps)), tuple(parent_step))


def _clip(text: str, limit: int = 40) -> str:
    """``text`` quoted, cut to its first ``limit`` characters plus '...'."""
    return repr(text[:limit]) + ("..." if len(text) > limit else "")


def parse_diagram(text: str) -> WiringDiagram:
    """Parse the two-line text format: ``n`` then space-separated tracks.

    Blank lines may follow; any other text after line 2 is a ParseError.
    """
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input", 1)
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise ParseError(f"expected wire count, got {_clip(lines[0])}", 1) from None
    if not 1 <= n < 2**64:  # past that no swap line holds n(n-1)/2 swaps
        raise ParseError(f"wire count must be in [1, 2**64), got {_clip(str(n), 20)}", 1)
    tokens = lines[1].split() if len(lines) > 1 else []
    swaps = []
    for col, tok in enumerate(tokens, start=1):
        try:
            swaps.append(int(tok))
        except ValueError:
            raise ParseError(f"bad track {_clip(tok)}", 2, col) from None
    try:
        d = validate_wiring(n, swaps)
    except BadTrack as exc:  # the track may run to thousands of digits
        raise ParseError(f"track {_clip(str(exc.track), 20)} outside [1, {n - 1}]",
                         2, exc.step) from exc
    except (WrongLength, DoubleCross) as exc:
        raise ParseError(str(exc), 2) from exc
    for i, line in enumerate(lines[2:], start=3):
        if line.strip():
            raise ParseError(f"unexpected text after the swaps: {_clip(line)}", i)
    return d


def format_diagram(d: WiringDiagram) -> str:
    """Inverse of :func:`parse_diagram`."""
    return f"{d.n}\n{' '.join(str(t) for t in d.swaps)}\n"
