"""Exception hierarchy for pseudoline arrangements."""


class PseudolineError(Exception):
    """Base class for all library errors."""


class WrongLength(PseudolineError):
    """Swap sequence has the wrong number of entries for its wire count."""

    def __init__(self, n, expected, got):
        self.n, self.expected, self.got = n, expected, got
        super().__init__(f"n={n} needs {expected} swaps, got {got}")


class DoubleCross(PseudolineError):
    """Some wire pair crosses twice.  ``step`` is 1-based."""

    def __init__(self, pair, step):
        self.pair, self.step = pair, step
        super().__init__(f"pair {pair} crosses twice, second time at step {step}")


class BadTrack(PseudolineError):
    """Swap entry outside [1, n-1]."""

    def __init__(self, track, n, step):
        self.track, self.n, self.step = track, n, step
        super().__init__(f"track {track} at step {step} outside [1, {n - 1}]")


class InputError(PseudolineError):
    """Input that cannot be read, parsed or used; the CLI exits 2 on it."""


class ParseError(InputError):
    """Text-format parse failure; carries 1-based line and column."""

    def __init__(self, message, line, column=None):
        self.line, self.column = line, column
        where = f"line {line}" + (f", col {column}" if column is not None else "")
        super().__init__(f"{where}: {message}")


class EmptySubset(PseudolineError):
    """Induced subarrangement requested on an empty wire set."""


class UnboundedFace(PseudolineError):
    """Operation requires a bounded face."""


class NoGe5Gon(PseudolineError):
    """Arrangement has no (>=5)-gon."""


class MultipleGe5Gons(PseudolineError):
    """Arrangement has two or more (>=5)-gons; outside the studied class."""

    def __init__(self, face_ids):
        self.face_ids = tuple(face_ids)
        super().__init__(f"multiple (>=5)-gons: faces {self.face_ids}")


class NTooLarge(PseudolineError):
    """Raw enumeration requested beyond the hard cap."""


class ConcurrentLines(PseudolineError):
    """Three or more lines pass through one point."""


class DuplicateSlope(InputError):
    """Two lines share a slope (parallel lines are not allowed)."""


class TooFewLines(InputError):
    """A line arrangement needs at least two lines to have a crossing."""


class NotInIm(PseudolineError):
    """Diagram is not in the all-wires-on-the-gon family."""


class NoConsecutiveTriple(PseudolineError):
    """No three consecutive non-critical edges on the big gon."""


class EpsilonExhausted(PseudolineError):
    """The necklace tilt left no all-line central face; construction bug."""


class WrongLabels(PseudolineError):
    """The realizer's closing labelled check failed: the tangent model's
    lines do not sweep into the input diagram, line i on wire i + 1, which
    would be a counterexample to the tangent-model conjecture."""
