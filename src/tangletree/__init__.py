"""Trees of tangles in abstract separation systems.

Universes of separations with order functions, consistent orientations
and profiles, tangle-tree duality over star families, canonical nested
sets distinguishing the tangles, and their refinement to honest trees.
"""

from .config import Caps, DEFAULT_CAPS
from .core import (
    BipartitionUniverse,
    SeparationSystem,
    TablePoset,
    Universe,
    order_filtered_system,
    order_submodularity_violation,
    verify_universe_laws,
)
from .errors import (
    DomainError,
    InputError,
    IntegrityError,
    ResourceCapError,
    TangletreeError,
    UnsupportedOperationError,
)
from .orient import (
    StarFamily,
    consistent_orientations,
    enumerate_tangles,
    f_tangle_violation,
    is_consistent,
    is_profile,
    is_star,
    profile_star_family,
)
from .trees import (
    NestedSet,
    STree,
    essential_nodes,
    lives_at,
    nodes_of,
    stree_to_treeset,
    treeset_to_stree,
)
from .duality import DualityResult, duality_decide
from .refine import RefineOutcome, refine_star, refine_treeset
from .canonical import (
    CanonicalResult,
    GoodResult,
    Isomorphism,
    canonical_nested_set,
    check_canonicity,
    good_nested_set,
    refined_tree_of_tangles,
)
from .graphsep import (
    Graph,
    GraphUniverse,
    graph_separation_system,
    graph_tangles,
    tk_star_family,
)

__version__ = "0.1.0"

__all__ = [
    "BipartitionUniverse",
    "CanonicalResult",
    "Caps",
    "DEFAULT_CAPS",
    "DomainError",
    "DualityResult",
    "Graph",
    "GraphUniverse",
    "GoodResult",
    "InputError",
    "IntegrityError",
    "Isomorphism",
    "NestedSet",
    "RefineOutcome",
    "ResourceCapError",
    "STree",
    "SeparationSystem",
    "StarFamily",
    "TablePoset",
    "TangletreeError",
    "Universe",
    "UnsupportedOperationError",
    "canonical_nested_set",
    "check_canonicity",
    "consistent_orientations",
    "duality_decide",
    "enumerate_tangles",
    "essential_nodes",
    "f_tangle_violation",
    "good_nested_set",
    "graph_separation_system",
    "graph_tangles",
    "is_consistent",
    "is_profile",
    "is_star",
    "lives_at",
    "nodes_of",
    "order_filtered_system",
    "order_submodularity_violation",
    "profile_star_family",
    "refine_star",
    "refine_treeset",
    "refined_tree_of_tangles",
    "stree_to_treeset",
    "tk_star_family",
    "treeset_to_stree",
    "verify_universe_laws",
]
