"""Betti tables of edge ideals of finite simple graphs, exactly.

The homological side computes graded Betti numbers beta_{i,i+j} of S/I(G)
by summing exact reduced-homology dimensions of independence complexes over
vertex subsets; the combinatorial side searches for strongly disjoint
bouquet sets certifying nonzero positions.  On chordal graphs the two views
agree position-for-position, and the verify harness replays that and the
other family-level facts on demand.
"""

from .analysis import (
    ExtremalReport,
    extremal_positions,
    projective_dimension,
    regularity,
    render_table,
)
from .betti import (
    BettiTable,
    betti_single,
    betti_table,
    hilbert_numerator,
    k_polynomial,
)
from .bouquets import (
    Certificate,
    certified_positions,
    find_certificate,
    validate_bouquet_set,
)
from .enumeration import all_chordal_graphs, all_trees, random_chordal
from .families import (
    build_family,
    g_pr1,
    g_rb,
    parse_family_spec,
    path_star,
    star_triangle,
)
from .graphs import (
    Graph,
    format_graph,
    induced_matching_number,
    is_chordal,
    is_connected,
    is_induced_matching,
    new_graph,
    parse_graph,
)
from .homology import (
    FieldSpec,
    reduced_homology_dims,
)
from .verify import (
    VerificationReport,
    verify_cert_support,
    verify_gpr1,
    verify_grb,
    verify_reg_eq_indmatch,
)

__version__ = "0.1.0"

__all__ = [
    "BettiTable",
    "Certificate",
    "ExtremalReport",
    "FieldSpec",
    "Graph",
    "VerificationReport",
    "all_chordal_graphs",
    "all_trees",
    "betti_single",
    "betti_table",
    "build_family",
    "certified_positions",
    "extremal_positions",
    "find_certificate",
    "format_graph",
    "g_pr1",
    "g_rb",
    "hilbert_numerator",
    "induced_matching_number",
    "is_chordal",
    "is_connected",
    "is_induced_matching",
    "k_polynomial",
    "new_graph",
    "parse_family_spec",
    "parse_graph",
    "path_star",
    "projective_dimension",
    "random_chordal",
    "reduced_homology_dims",
    "regularity",
    "render_table",
    "star_triangle",
    "validate_bouquet_set",
    "verify_cert_support",
    "verify_gpr1",
    "verify_grb",
    "verify_reg_eq_indmatch",
]
