"""Mod-9 residue analysis, De Bruijn graphs, and bounded search for
x^3 + y^3 + z^3 = k."""

from .debruijn import (
    Alphabet,
    CoverageReport,
    DeBruijnGraph,
    EulerianStatus,
    FIXTURE_EDGES,
    MAX_DEBRUIJN_EDGES,
    NotEulerianError,
    TERNARY_ALPHABET,
    check_order,
    circuit_to_sequence,
    cyclic_windows,
    debruijn_sequence,
    edge_endpoints,
    eulerian_circuit,
    eulerian_status,
    fixture_subgraph,
    full_dot_lines,
    to_dot,
    validate_cycle,
    validate_full,
)
from .residues import (
    CUBIC_RESIDUES,
    CubeSumMismatch,
    INFEASIBLE_CLASSES,
    ResidueTriple,
    SignedSpelling,
    class_of,
    cube_residue,
    decompose,
    is_feasible,
    label_solution,
    signed_spelling_for,
    signed_spellings,
)
from .search import (
    MAX_SCAN_BOUND,
    MAX_SCAN_WIDTH,
    MAX_SEARCH_BOUND,
    Representation,
    SearchBounds,
    SearchBoundsError,
    SearchResult,
    SearchStats,
    TWO_CUBE_CLASSES,
    scan_range,
    search_k,
    verify,
)

__version__ = "0.1.0"
