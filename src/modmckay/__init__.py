"""Exact combinatorics of the modular McKay graph of SL_n(p).

Vertices are p-restricted dominant weights of type A_{n-1}, written as
tuples of n-1 nonnegative integers in the fundamental-weight basis.
The package provides the weight/partition arithmetic, the characteristic-0
tensor neighbours, the conormal-index certification of edges, the three
certified edge moves, an explicit path planner meeting the diameter bound
(p-1)(n^2-n)/2, and a small graph engine that verifies the bound
exhaustively at desk scale.
"""

from .weights import (
    f_value,
    is_p_restricted,
    is_subdominant,
    p_adic_decompose,
    partition_to_weight,
    s_sum,
    steinberg_weight,
    to_scaled_root_coeffs,
    weight_to_partition,
)
from .char0 import canonical_path_char0, char0_distance, lr_neighbors
from .conormal import (
    addable_indices,
    bk_children,
    block_form,
    conormal_indices,
    removable_indices,
)
from .moves import (
    Move,
    NoSuchEdgeError,
    NotApplicableError,
    apply_move,
    certified_moves,
    certify_via_conormal,
    move_add_first,
    move_clear_forward,
    move_clear_last,
    validate_move,
)
from .planner import (
    InvariantViolationError,
    PathPlan,
    capital_M_of,
    ell,
    lambda_zero,
    length_bound,
    path_from_M,
    plan_path,
    s_mu,
)
from .graph import (
    BudgetExceededError,
    CertifiedGraph,
    bfs_distances,
    build_certified_graph,
    enumerate_p_restricted,
    subgraph_diameter,
)

__all__ = [
    "BudgetExceededError",
    "CertifiedGraph",
    "InvariantViolationError",
    "Move",
    "NoSuchEdgeError",
    "NotApplicableError",
    "PathPlan",
    "addable_indices",
    "apply_move",
    "bfs_distances",
    "bk_children",
    "block_form",
    "build_certified_graph",
    "canonical_path_char0",
    "capital_M_of",
    "certified_moves",
    "certify_via_conormal",
    "char0_distance",
    "conormal_indices",
    "ell",
    "enumerate_p_restricted",
    "f_value",
    "is_p_restricted",
    "is_subdominant",
    "lambda_zero",
    "length_bound",
    "lr_neighbors",
    "move_add_first",
    "move_clear_forward",
    "move_clear_last",
    "p_adic_decompose",
    "partition_to_weight",
    "path_from_M",
    "plan_path",
    "removable_indices",
    "s_mu",
    "s_sum",
    "steinberg_weight",
    "subgraph_diameter",
    "to_scaled_root_coeffs",
    "validate_move",
    "weight_to_partition",
]
