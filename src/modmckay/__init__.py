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
    partition_to_weight,
    steinberg_weight,
    to_scaled_root_coeffs,
    weight_to_partition,
)
from .char0 import char0_distance, lr_neighbors
from .conormal import addable_indices, bk_children, conormal_indices, removable_indices
from .moves import Move, NoSuchEdgeError, certified_moves, validate_move
from .planner import InvariantViolationError, PathPlan, length_bound, plan_path
from .graph import (
    BudgetExceededError,
    CertifiedGraph,
    bfs_distances,
    build_certified_graph,
    subgraph_diameter,
)

__all__ = [
    "BudgetExceededError",
    "CertifiedGraph",
    "InvariantViolationError",
    "Move",
    "NoSuchEdgeError",
    "PathPlan",
    "addable_indices",
    "bfs_distances",
    "bk_children",
    "build_certified_graph",
    "certified_moves",
    "char0_distance",
    "conormal_indices",
    "f_value",
    "length_bound",
    "lr_neighbors",
    "partition_to_weight",
    "plan_path",
    "removable_indices",
    "steinberg_weight",
    "subgraph_diameter",
    "to_scaled_root_coeffs",
    "validate_move",
    "weight_to_partition",
]
