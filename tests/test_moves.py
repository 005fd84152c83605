from itertools import product

import pytest

from modmckay.char0 import char0_distance, lr_neighbors
from modmckay.conormal import (
    addable_indices,
    bk_children,
    block_form,
    conormal_indices,
    removable_indices,
)
from modmckay.moves import (
    Move,
    NoSuchEdgeError,
    NotApplicableError,
    apply_move,
    certified_moves,
    certify_via_conormal,
    first_nonzero_position,
    move_add_first,
    move_clear_forward,
    move_clear_last,
    validate_move,
)
from modmckay.planner import capital_M_of, ell, path_from_M, s_mu
from modmckay.weights import (
    f_value,
    is_p_restricted,
    partition_to_weight,
    weight_to_partition,
)

SMALL_INSTANCES = [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2), (4, 3), (5, 2)]


def all_restricted(n, p):
    return [w for w in product(range(p), repeat=n - 1)]


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
        assert move_add_first((1, 0), 3) == (2, 0)

    def test_wrap_to_one(self):
        # 2+1 = 3 is congruent to 1 mod 2, and 1 is the representative
        assert move_add_first((2, 0), 3) == (1, 0)

    def test_p2_self_loop(self):
        assert move_add_first((1,), 2) == (1,)

    def test_rejects_unrestricted(self):
        with pytest.raises(ValueError):
            move_add_first((3, 0), 3)


class TestClearForward:
    def test_wrap_in_next_entry(self):
        assert move_clear_forward((0, 2, 1), 3) == (0, 1, 2)

    def test_simple(self):
        assert move_clear_forward((1, 0), 3) == (0, 1)

    def test_not_applicable_at_last_position(self):
        with pytest.raises(NotApplicableError):
            move_clear_forward((0, 0, 1), 2)
        with pytest.raises(NotApplicableError):
            move_clear_forward((0, 0, 0), 2)


class TestClearLast:
    def test_examples(self):
        assert move_clear_last((0, 1)) == (0, 0)
        assert move_clear_last((0, 0, 2)) == (0, 0, 1)

    def test_not_applicable(self):
        with pytest.raises(NotApplicableError):
            move_clear_last((1, 0, 1))
        with pytest.raises(NotApplicableError):
            move_clear_last((0, 0))


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

    def test_count_and_closure(self):
        for n, p in SMALL_INSTANCES:
            for w in all_restricted(n, p):
                edges = certified_moves(w, p)
                assert len(edges) == (1 if not any(w) else 2)
                for _, target in edges:
                    assert is_p_restricted(target, p)

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


class TestApplyMove:
    def test_dispatch(self):
        assert apply_move((1, 0), Move("add_first"), 3) == (2, 0)
        assert apply_move((1, 0), Move("clear_forward", 1), 3) == (0, 1)
        assert apply_move((0, 1), Move("clear_last"), 2) == (0, 0)

    def test_stale_clear_position_rejected(self):
        with pytest.raises(NotApplicableError):
            apply_move((0, 1, 0), Move("clear_forward", 1), 3)


class TestCertifyViaConormal:
    def test_add_first_examples(self):
        assert certify_via_conormal((1, 0), Move("add_first"), 3)
        assert certify_via_conormal((2, 2), Move("add_first"), 3)  # wraps via p-adic

    def test_clear_examples(self):
        assert certify_via_conormal((1, 0), Move("clear_forward", 1), 3)
        assert certify_via_conormal((0, 1), Move("clear_last"), 2)

    def test_every_certified_move_certifies(self):
        for n, p in SMALL_INSTANCES:
            for w in all_restricted(n, p):
                for move, _ in certified_moves(w, p):
                    assert certify_via_conormal(w, move, p), (w, move, p)

    def test_inapplicable_move_raises(self):
        with pytest.raises(NotApplicableError):
            certify_via_conormal((1, 0, 0), Move("clear_last"), 2)


_CHECKED_AT_BOUNDARY = {
    "apply_move": lambda w: apply_move(w, Move("add_first"), 3),
    "certified_moves": lambda w: certified_moves(w, 3),
    "validate_move_source": lambda w: validate_move(w, (1, 0), 3),
    "validate_move_target": lambda w: validate_move((1, 0), w, 3),
    "move_add_first": lambda w: move_add_first(w, 3),
    "move_clear_forward": lambda w: move_clear_forward(w, 3),
    "certify_via_conormal": lambda w: certify_via_conormal(w, Move("add_first"), 3),
    "capital_M_of": lambda w: capital_M_of(w, 3),
    "path_from_M": lambda w: path_from_M(w, 3),
    "ell": lambda w: ell(w, 3),
    "s_mu": lambda w: s_mu(w, 3),
}


@pytest.mark.parametrize(
    "call", list(_CHECKED_AT_BOUNDARY.values()), ids=list(_CHECKED_AT_BOUNDARY)
)
@pytest.mark.parametrize("bad", [(3, 0), (-1, 0)], ids=["unrestricted", "negative"])
def test_public_functions_reject_bad_weights(call, bad):
    # Exactly ValueError: the boundary check fires, not a NotApplicableError
    # from the trusting kernel behind it.
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
    "block_form": block_form,
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
