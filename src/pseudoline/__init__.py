"""Simple Euclidean pseudoline arrangements: wiring diagrams, cell complexes,
face analysis, enumeration, self-dual necklaces, and exact stretching."""

from .analysis import (
    criticality_k,
    critical_edges,
    face_census,
    find_unique_ge5,
    is_in_Im,
    report_json,
    triangle_adjacency,
    verify_counting_theorem,
)
from .cells import CellComplex, build_cell_complex
from .embedding import GridEmbedding, extract_diagram, face_containing, grid_embedding
from .enumeration import enumerate_simple, raw_words
from .errors import PseudolineError
from .isomorphism import canonical_form, find_isomorphism, isomorphic
from .lines import Line, LineArrangement, lines_to_diagram
from .necklace import build_arrangement, enumerate_selfdual, q_formula
from .render import render_diagram, render_lines
from .stretch import realize_im, select_insertion_frame
from .wiring import (
    WiringDiagram,
    format_diagram,
    induced_subarrangement,
    parse_diagram,
    validate_wiring,
)

__version__ = "1.0.0"
__all__ = [
    "WiringDiagram", "validate_wiring", "parse_diagram", "format_diagram",
    "induced_subarrangement", "CellComplex", "build_cell_complex",
    "GridEmbedding", "grid_embedding", "face_containing", "extract_diagram",
    "face_census", "critical_edges", "criticality_k", "find_unique_ge5",
    "is_in_Im", "verify_counting_theorem", "triangle_adjacency", "report_json",
    "enumerate_simple", "raw_words", "canonical_form", "isomorphic",
    "find_isomorphism", "Line", "LineArrangement", "lines_to_diagram",
    "q_formula", "enumerate_selfdual", "build_arrangement",
    "select_insertion_frame", "realize_im", "render_diagram", "render_lines",
    "PseudolineError", "__version__",
]
