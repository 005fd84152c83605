import importlib
from itertools import product

import pytest

import modmckay
from modmckay.char0 import char0_distance, lr_neighbors
from modmckay.conormal import (
    _rows,
    addable_indices,
    bk_children,
    conormal_indices,
    removable_indices,
)
from modmckay.moves import (
    Move,
    NoSuchEdgeError,
    _certify,
    certified_moves,
    first_nonzero_position,
    validate_move,
)
from modmckay.weights import f_value, partition_to_weight, weight_to_partition

SMALL_INSTANCES = [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2)]


def all_restricted(n, p):
    return [w for w in product(range(p), repeat=n - 1)]


def head(w, move, p):
    """The head of the certified edge labelled ``move`` out of ``w``, or
    None when ``w`` has no such edge."""
    return dict(certified_moves(w, p)).get(move)


ADD_FIRST = Move("add_first")
CLEAR_LAST = Move("clear_last")


class TestMoveType:
    def test_str_and_json(self):
        assert str(Move("add_first")) == "add_first"
        assert str(Move("clear_forward", 2)) == "clear_forward(2)"
        assert Move("clear_last").to_json_dict() == {"kind": "clear_last"}

    def test_invalid(self):
        with pytest.raises(ValueError):
            Move("sideways")
        with pytest.raises(ValueError):
            Move("clear_forward")
        with pytest.raises(ValueError):
            Move("add_first", 1)

    def test_first_nonzero(self):
        assert first_nonzero_position((0, 0)) is None
        assert first_nonzero_position((0, 2, 1)) == 2


class TestAddFirst:
    def test_no_wrap(self):
        assert head((1, 0), ADD_FIRST, 3) == (2, 0)

    def test_wrap_to_one(self):
        # 2+1 = 3 is congruent to 1 mod 2, and 1 is the representative
        assert head((2, 0), ADD_FIRST, 3) == (1, 0)

    def test_p2_self_loop(self):
        assert head((1,), ADD_FIRST, 2) == (1,)


class TestClearForward:
    def test_wrap_in_next_entry(self):
        assert head((0, 2, 1), Move("clear_forward", 2), 3) == (0, 1, 2)

    def test_simple(self):
        assert head((1, 0), Move("clear_forward", 1), 3) == (0, 1)

    def test_not_applicable_at_last_position(self):
        for w in [(0, 0, 1), (0, 0, 0)]:
            assert all(move.kind != "clear_forward" for move, _ in certified_moves(w, 2))


class TestClearLast:
    def test_examples(self):
        assert head((0, 1), CLEAR_LAST, 2) == (0, 0)
        assert head((0, 0, 2), CLEAR_LAST, 3) == (0, 0, 1)

    def test_not_applicable(self):
        assert head((1, 0, 1), CLEAR_LAST, 2) is None
        assert head((0, 0), CLEAR_LAST, 2) is None


class TestCertifiedMoves:
    def test_zero_has_only_add(self):
        assert certified_moves((0, 0, 0), 2) == [(Move("add_first"), (1, 0, 0))]

    def test_clear_last_branch(self):
        assert certified_moves((0, 1), 2) == [
            (Move("add_first"), (1, 1)),
            (Move("clear_last"), (0, 0)),
        ]

    def test_clear_forward_branch(self):
        assert certified_moves((1, 0), 3) == [
            (Move("add_first"), (2, 0)),
            (Move("clear_forward", 1), (0, 1)),
        ]

    def test_stale_clear_position_is_no_edge(self):
        # (0, 1, 0) clears position 2, not 1.
        assert head((0, 1, 0), Move("clear_forward", 1), 3) is None

    def test_count_and_closure(self):
        for n, p in SMALL_INSTANCES:
            for w in all_restricted(n, p):
                edges = certified_moves(w, p)
                assert len(edges) == (1 if not any(w) else 2)
                for _, target in edges:
                    assert all(0 <= m < p for m in target)

    def test_potential_law(self):
        for n, p in SMALL_INSTANCES:
            for w in all_restricted(n, p):
                for _, target in certified_moves(w, p):
                    assert f_value(target) <= f_value(w) + 1


class TestValidateMove:
    def test_examples(self):
        assert validate_move((2, 0), (1, 0), 3) == Move("add_first")
        assert validate_move((0, 1), (0, 0), 2) == Move("clear_last")
        with pytest.raises(NoSuchEdgeError):
            validate_move((1, 0), (1, 1), 3)

    def test_rank_mismatch_is_bad_input(self):
        for lam, mu in [((0, 0), (0,)), ((1,), (0, 1))]:
            with pytest.raises(ValueError, match="rank mismatch") as exc:
                validate_move(lam, mu, 3)
            assert type(exc.value) is ValueError

    def test_agrees_with_certified_moves_exhaustively(self):
        # parallel edges with distinct labels exist (e.g. (2) -> (1) for
        # n=2, p=3); the validator reports the first in move order
        for n, p in [(2, 3), (3, 2), (3, 3), (4, 2)]:
            weights = all_restricted(n, p)
            for a in weights:
                edges = certified_moves(a, p)
                for b in weights:
                    matches = [m for m, t in edges if t == b]
                    if matches:
                        assert validate_move(a, b, p) == matches[0]
                    else:
                        with pytest.raises(NoSuchEdgeError):
                            validate_move(a, b, p)


def certify(lam, move, mu, p):
    """moves._certify on the edge lam -> mu, with the partition and the
    conormal rows that verify computes once per vertex."""
    parts = weight_to_partition(lam)
    return _certify(lam, move, mu, p, parts, _rows(parts, p)[2])


class TestCertifyViaConormal:
    def test_add_first_examples(self):
        assert certify((1, 0), ADD_FIRST, (2, 0), 3)
        assert certify((2, 2), ADD_FIRST, (1, 2), 3)  # wraps via p-adic

    def test_clear_examples(self):
        assert certify((1, 0), Move("clear_forward", 1), (0, 1), 3)
        assert certify((0, 1), CLEAR_LAST, (0, 0), 2)

    def test_every_certified_move_certifies(self):
        for n, p in SMALL_INSTANCES:
            for w in all_restricted(n, p):
                for move, target in certified_moves(w, p):
                    assert certify(w, move, target, p), (w, move, p)

    def test_a_wrong_head_fails(self):
        # The responsible row is conormal, but the box it adds witnesses
        # another weight.
        assert not certify((1, 0), ADD_FIRST, (0, 1), 3)
        assert not certify((1, 0), Move("clear_forward", 1), (2, 0), 3)


_CHECKED_AT_BOUNDARY = {
    "certified_moves": lambda w: certified_moves(w, 3),
    "validate_move_source": lambda w: validate_move(w, (1, 0), 3),
    "validate_move_target": lambda w: validate_move((1, 0), w, 3),
}


@pytest.mark.parametrize(
    "call", list(_CHECKED_AT_BOUNDARY.values()), ids=list(_CHECKED_AT_BOUNDARY)
)
@pytest.mark.parametrize("bad", [(3, 0), (-1, 0)], ids=["unrestricted", "negative"])
def test_public_functions_reject_bad_weights(call, bad):
    # Exactly ValueError: the boundary check fires, not a NoSuchEdgeError
    # from the search behind it.
    with pytest.raises(ValueError) as excinfo:
        call(bad)
    assert excinfo.type is ValueError


# Public names that take any dominant weight, or a partition, and check it
# once before handing it to a trusting kernel.
_WEIGHT_CHECKED_AT_BOUNDARY = {
    "f_value": f_value,
    "weight_to_partition": weight_to_partition,
    "lr_neighbors": lr_neighbors,
    "char0_distance_source": lambda w: char0_distance(w, (1, 0), 3),
    "char0_distance_target": lambda w: char0_distance((1, 0), w, 3),
}
_PARTITION_CHECKED_AT_BOUNDARY = {
    "conormal_indices": lambda parts: conormal_indices(parts, 3),
    "addable_indices": addable_indices,
    "removable_indices": removable_indices,
    "bk_children": lambda parts: bk_children(parts, 3),
    "partition_to_weight": partition_to_weight,
}


@pytest.mark.parametrize(
    "call",
    list(_WEIGHT_CHECKED_AT_BOUNDARY.values()),
    ids=list(_WEIGHT_CHECKED_AT_BOUNDARY),
)
@pytest.mark.parametrize("bad", [(-1, 0), (2, -1)], ids=["negative", "negative_last"])
def test_public_functions_reject_negative_weights(call, bad):
    with pytest.raises(ValueError) as excinfo:
        call(bad)
    assert excinfo.type is ValueError


@pytest.mark.parametrize(
    "call",
    list(_PARTITION_CHECKED_AT_BOUNDARY.values()),
    ids=list(_PARTITION_CHECKED_AT_BOUNDARY),
)
@pytest.mark.parametrize("bad", [(1, 2, 0), (2, 1, -1)], ids=["increasing", "negative"])
def test_public_functions_reject_bad_partitions(call, bad):
    with pytest.raises(ValueError) as excinfo:
        call(bad)
    assert excinfo.type is ValueError


# The public surface: the names that modmckay exports, and each module's
# public functions and classes.  A name added or removed shows up here.
_EXPORTED = [
    "BudgetExceededError", "CertifiedGraph", "InvariantViolationError", "Move",
    "NoSuchEdgeError", "PathPlan", "addable_indices", "bfs_distances",
    "bk_children", "build_certified_graph", "certified_moves", "char0_distance",
    "conormal_indices", "f_value", "length_bound", "lr_neighbors",
    "partition_to_weight", "plan_path", "removable_indices", "steinberg_weight",
    "subgraph_diameter", "to_scaled_root_coeffs", "validate_move",
    "weight_to_partition",
]
_PUBLIC = {
    "weights": [
        "check_partition", "check_weight", "f_value", "format_weight",
        "parse_weight", "partition_to_weight", "require_restricted",
        "steinberg_weight", "to_scaled_root_coeffs", "weight_to_partition",
    ],
    "char0": ["char0_distance", "lr_neighbors"],
    "conormal": ["addable_indices", "bk_children", "conormal_indices", "removable_indices"],
    "moves": [
        "Move", "NoSuchEdgeError", "certified_moves", "first_nonzero_position",
        "validate_move",
    ],
    "planner": ["InvariantViolationError", "PathPlan", "length_bound", "plan_path"],
    "graph": [
        "BudgetExceededError", "CertifiedGraph", "bfs_distances",
        "build_certified_graph", "distance_matrix_csv", "subgraph_diameter",
    ],
    "cli": ["main", "run_verification"],
}


def test_package_exports_exactly_these_names():
    assert sorted(modmckay.__all__) == _EXPORTED
    namespace = {}
    exec("from modmckay import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == _EXPORTED


@pytest.mark.parametrize("module", list(_PUBLIC))
def test_module_defines_exactly_these_public_names(module):
    mod = importlib.import_module(f"modmckay.{module}")
    public = sorted(
        name for name, obj in vars(mod).items()
        if not name.startswith("_") and callable(obj)
        and getattr(obj, "__module__", None) == mod.__name__
    )
    assert public == _PUBLIC[module]
