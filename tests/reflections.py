"""Test-only reflections of a wiring diagram: each is a diagram of an
isomorphic arrangement, the same arrangement seen in a mirror."""

from pseudoline.wiring import WiringDiagram


def mirror_vertical(d: WiringDiagram) -> WiringDiagram:
    """Top-bottom reflection: track t becomes n-t."""
    return WiringDiagram(d.n, tuple(d.n - t for t in d.swaps))


def reverse_sweep(d: WiringDiagram) -> WiringDiagram:
    """Left-right reflection: the swap sequence reversed."""
    return WiringDiagram(d.n, tuple(reversed(d.swaps)))
