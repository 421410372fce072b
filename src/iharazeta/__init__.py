"""Exact reciprocal Ihara zeta polynomials for connected multigraphs.

Three independent engines (determinant on the vertex matrices,
determinant on the oriented line graph, signed cycle-packing
enumeration) compute the same integer polynomial; family generators with
published closed forms, a rank-two classification, and spanning-tree
counts round out the library. Everything is exact integer arithmetic.
"""

from .errors import (
    ConsistencyError,
    DegenerateRankError,
    GraphValidationError,
    InputError,
    ParameterError,
    SizeCapError,
    VerificationError,
    ZetaError,
)
from .families import (
    FAMILY_TAGS,
    FamilySpec,
    NAMED_SMALL,
    check_domain,
    closed_form,
    family_spec,
    gen_family,
    parse_family_spec,
    verify_family,
)
from .intpoly import IntPoly, format_poly
from .multigraph import (
    Multigraph,
    StructuralReport,
    build_multigraph,
    format_edge_list,
    kirchhoff_tree_count,
    parse_edge_list,
    parse_edge_list_text,
    structural_report,
    validate_zeta_input,
)
from .polydet import bareiss_int_det, reversed_charpoly
from .ranktwo import (
    canonicalize,
    completeness_check,
    enumerate_rank2,
    rank_two_spec,
)
from .smallgraphs import canonical_key, connected_multigraphs, is_isomorphic
from .trees import tree_count_closed_form, tree_count_from_zeta
from .zeta import (
    DEFAULT_ENUM_CAP,
    OrientedLineDigraph,
    census_coefficient,
    enumerate_directed_cycles,
    linear_subgraph_census,
    oriented_line_graph,
    poly_invariants,
    zeta_bass,
    zeta_enum,
    zeta_line_det,
)

__version__ = "0.1.0"

__all__ = [
    "ConsistencyError",
    "DegenerateRankError",
    "GraphValidationError",
    "InputError",
    "ParameterError",
    "SizeCapError",
    "VerificationError",
    "ZetaError",
    "FAMILY_TAGS",
    "FamilySpec",
    "NAMED_SMALL",
    "check_domain",
    "closed_form",
    "family_spec",
    "gen_family",
    "parse_family_spec",
    "verify_family",
    "IntPoly",
    "format_poly",
    "Multigraph",
    "StructuralReport",
    "build_multigraph",
    "format_edge_list",
    "kirchhoff_tree_count",
    "parse_edge_list",
    "parse_edge_list_text",
    "structural_report",
    "validate_zeta_input",
    "bareiss_int_det",
    "reversed_charpoly",
    "canonicalize",
    "completeness_check",
    "enumerate_rank2",
    "rank_two_spec",
    "canonical_key",
    "connected_multigraphs",
    "is_isomorphic",
    "tree_count_closed_form",
    "tree_count_from_zeta",
    "DEFAULT_ENUM_CAP",
    "OrientedLineDigraph",
    "census_coefficient",
    "enumerate_directed_cycles",
    "linear_subgraph_census",
    "oriented_line_graph",
    "poly_invariants",
    "zeta_bass",
    "zeta_enum",
    "zeta_line_det",
    "__version__",
]
